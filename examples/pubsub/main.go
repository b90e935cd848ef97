// Publish/subscribe matching — an application class the paper singles out
// ("e.g., superset in publish/subscribe systems"). Each subscription is a
// set of tags it requires; an event carries a set of tags. A subscription
// fires when ALL of its tags appear on the event, i.e. the subscription's
// set is contained in the event's set — precisely a superset query with
// the event's tags as the query set.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/setcontain"
)

const (
	numTags          = 500
	numSubscriptions = 50000
)

func main() {
	rng := rand.New(rand.NewSource(99))

	// Subscriptions require 1..4 tags; tag interest is skewed (low tag
	// ids are popular topics).
	coll := setcontain.NewCollection(numTags)
	for i := 0; i < numSubscriptions; i++ {
		n := 1 + rng.Intn(4)
		seen := map[setcontain.Item]bool{}
		tags := make([]setcontain.Item, 0, n)
		for len(tags) < n {
			// Squaring a uniform variate skews towards popular tags.
			u := rng.Float64()
			tag := setcontain.Item(u * u * numTags)
			if tag >= numTags {
				tag = numTags - 1
			}
			if !seen[tag] {
				seen[tag] = true
				tags = append(tags, tag)
			}
		}
		if _, err := coll.Add(tags); err != nil {
			log.Fatal(err)
		}
	}

	idx, err := setcontain.New(coll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %d subscriptions over %d tags\n\n", coll.Len(), numTags)

	// Generate a stream of events; each event carries 3..10 tags.
	const events = 200
	queries := make([]setcontain.Query, events)
	for e := range queries {
		n := 3 + rng.Intn(8)
		seen := map[setcontain.Item]bool{}
		tags := make([]setcontain.Item, 0, n)
		for len(tags) < n {
			u := rng.Float64()
			tag := setcontain.Item(u * u * numTags)
			if tag >= numTags {
				tag = numTags - 1
			}
			if !seen[tag] {
				seen[tag] = true
				tags = append(tags, tag)
			}
		}
		queries[e] = setcontain.SupersetQuery(tags)
	}

	// Dispatch concurrently: a Store hands each goroutine an isolated
	// pooled reader, so brokers match events in parallel over the one
	// index. Real dispatchers would plumb per-request contexts through.
	ctx := context.Background()
	store := setcontain.NewStore(idx, 0)
	const brokers = 4
	matchCounts := make([]int, events)
	var wg sync.WaitGroup
	for b := 0; b < brokers; b++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for e := shard; e < events; e += brokers {
				matches, err := store.Exec(ctx, queries[e])
				if err != nil {
					log.Fatal(err)
				}
				matchCounts[e] = len(matches)
			}
		}(b)
	}
	wg.Wait()

	var totalMatches, maxMatches int
	for e, n := range matchCounts {
		totalMatches += n
		if n > maxMatches {
			maxMatches = n
		}
		if e < 3 {
			fmt.Printf("event %d as %s matched %d subscriptions\n", e+1, queries[e], n)
		}
	}
	fmt.Printf("...\ndispatched %d events across %d brokers: %.1f matched subscriptions on average, %d max\n",
		events, brokers, float64(totalMatches)/events, maxMatches)

	// Subscriptions churn: register a new one mid-stream. The store's
	// next query sees it.
	id, err := idx.Insert([]setcontain.Item{1, 2})
	if err != nil {
		log.Fatal(err)
	}
	m, err := store.Exec(ctx, setcontain.SupersetQuery([]setcontain.Item{0, 1, 2, 3}))
	if err != nil {
		log.Fatal(err)
	}
	fired := false
	for _, s := range m {
		if s == id {
			fired = true
		}
	}
	fmt.Printf("new subscription #%d registered and matching immediately: %v\n", id, fired)
}
