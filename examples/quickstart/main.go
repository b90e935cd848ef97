// Quickstart: index the paper's running example (Figure 1 of Terrovitis
// et al., EDBT 2011) and run one query of each containment predicate.
package main

import (
	"fmt"
	"log"

	"repro/setcontain"
)

func main() {
	// The relation of the paper's Fig. 1: 18 records over items a..j.
	const (
		a = iota
		b
		c
		d
		e
		f
		g
		h
		i
		j
	)
	sets := [][]setcontain.Item{
		{g, b, a, d}, {a, e, b}, {f, e, a, b}, {d, b, a}, {a, b, f, c},
		{c, a}, {d, h}, {b, a, f}, {b, c}, {j, b, g}, {a, c, b}, {i, d},
		{a}, {a, d}, {j, c, a}, {i, c}, {a, c, h}, {d, c},
	}

	coll := setcontain.NewCollection(10)
	if err := coll.SetLabels([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}); err != nil {
		log.Fatal(err)
	}
	for _, s := range sets {
		if _, err := coll.Add(s); err != nil {
			log.Fatal(err)
		}
	}

	idx, err := setcontain.New(coll) // OIF by default
	if err != nil {
		log.Fatal(err)
	}

	show := func(q setcontain.Query, ids []uint32) {
		labels := make([]string, len(q.Items))
		for i, it := range q.Items {
			labels[i] = coll.Label(it)
		}
		fmt.Printf("%-9s %v -> records %v\n", q.Pred, labels, ids)
		for _, id := range ids {
			set, _ := coll.Record(id)
			names := make([]string, len(set))
			for i, it := range set {
				names[i] = coll.Label(it)
			}
			fmt.Printf("            #%d = %v\n", id, names)
		}
	}

	// "Which records contain both a and d?" — the paper's §2 subset
	// example; the answer is records 101, 104, 114 (here ids 1, 4, 14).
	// Queries are first-class values evaluated against the index.
	q := setcontain.SubsetQuery([]setcontain.Item{a, d})
	ids, err := q.Eval(idx)
	if err != nil {
		log.Fatal(err)
	}
	show(q, ids)

	// "Which records are exactly {a, b, d}?"
	q = setcontain.EqualityQuery([]setcontain.Item{a, b, d})
	ids, err = q.Eval(idx)
	if err != nil {
		log.Fatal(err)
	}
	show(q, ids)

	// "Which records contain only items from {a, c}?" — the paper's §2
	// superset example; the answer is records 106 and 113 (ids 6, 13).
	q = setcontain.SupersetQuery([]setcontain.Item{a, c})
	ids, err = q.Eval(idx)
	if err != nil {
		log.Fatal(err)
	}
	show(q, ids)

	// A large answer need not be computed in full: a limit stops the
	// evaluation early. Here the single-item subset of {a} — the most
	// frequent item — cut off after its first three ids.
	first, err := idx.EvalExprLimit(setcontain.ExprOf(setcontain.SubsetQuery([]setcontain.Item{a})), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst ids of subset{%s}: %v ...\n", coll.Label(a), first)

	st := idx.CacheStats()
	fmt.Printf("\nindex: %s; page reads: %d (seq %d, near %d, random %d)\n",
		idx.Kind(), st.PageReads, st.Sequential, st.Near, st.Random)
}
