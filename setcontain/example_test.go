package setcontain_test

import (
	"context"
	"fmt"
	"log"

	"repro/setcontain"
)

// Example indexes a small collection with the default OIF engine and
// answers one query of each containment predicate.
func Example() {
	coll := setcontain.NewCollection(10)
	for _, set := range [][]setcontain.Item{
		{0, 1, 3, 6}, {0, 1, 4}, {0, 1, 4, 5}, {0, 1, 3}, {0, 1, 2, 5},
		{0, 2}, {3, 7}, {0, 1, 5}, {1, 2}, {1, 6, 9}, {0, 1, 2}, {3, 8},
	} {
		if _, err := coll.Add(set); err != nil {
			log.Fatal(err)
		}
	}
	idx, err := setcontain.New(coll)
	if err != nil {
		log.Fatal(err)
	}

	subset, _ := idx.Subset([]setcontain.Item{0, 3})     // records ⊇ {0,3}
	equality, _ := idx.Equality([]setcontain.Item{0, 2}) // records = {0,2}
	superset, _ := idx.Superset([]setcontain.Item{0, 2}) // records ⊆ {0,2}
	fmt.Println("subset{0 3}  ", subset)
	fmt.Println("equality{0 2}", equality)
	fmt.Println("superset{0 2}", superset)
	// Output:
	// subset{0 3}   [1 4]
	// equality{0 2} [6]
	// superset{0 2} [6]
}

// ExampleParseQuery shows the textual query form round-tripping through
// ParseQuery and Query.String — the same vocabulary the CLIs and the
// serve package's ?q= parameter use.
func ExampleParseQuery() {
	q, err := setcontain.ParseQuery("subset{3 17 29}")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(q.Pred, len(q.Items))
	fmt.Println(q.String())

	_, err = setcontain.ParseQuery("between{1 2}")
	fmt.Println(err != nil)
	// Output:
	// subset 3
	// subset{3 17 29}
	// true
}

// ExampleStore_Exec serves queries concurrently through a Store, the
// concurrency-safe facade over an Index.
func ExampleStore_Exec() {
	coll := setcontain.NewCollection(100)
	for _, set := range [][]setcontain.Item{
		{1, 2, 3}, {2, 3}, {1, 3, 4}, {3},
	} {
		if _, err := coll.Add(set); err != nil {
			log.Fatal(err)
		}
	}
	idx, err := setcontain.New(coll)
	if err != nil {
		log.Fatal(err)
	}
	store := setcontain.NewStore(idx, 0)

	ids, err := store.Exec(context.Background(), setcontain.SubsetQuery([]setcontain.Item{3}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ids)
	// Output:
	// [1 2 3 4]
}
