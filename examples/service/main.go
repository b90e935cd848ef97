// Service: the serving layer end-to-end in one process — index a
// skewed collection, stand up the setcontaind HTTP surface on a local
// port, and play the client side: a batched POST /query, the textual
// GET form, a flushed /stream, and a /stats readback showing whether
// micro-batching engaged.
//
// In production the two halves run in different processes (see
// cmd/setcontaind and docs/ARCHITECTURE.md); everything over the wire
// here is exactly what a remote client sees.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/setcontain"
	"repro/setcontain/serve"
)

func main() {
	// --- Server side -----------------------------------------------------
	// A skewed synthetic collection, sharded across two planner-chosen
	// engines, behind a Store and the serve layer.
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumRecords: 20000, DomainSize: 500,
		MinLen: 2, MaxLen: 12, ZipfTheta: 0.9, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	coll := setcontain.WrapDataset(d)
	idx, err := setcontain.New(coll,
		setcontain.WithKind(setcontain.Sharded),
		setcontain.WithShards(2))
	if err != nil {
		log.Fatal(err)
	}
	store := setcontain.NewStore(idx, 0)
	sv := serve.NewServer(idx, store, serve.Config{ChunkIDs: 256})
	defer sv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: sv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %d records on %s\n\n", coll.Len(), base)

	// --- Client side -----------------------------------------------------
	// A batch of three queries in one POST; answers stream back as
	// NDJSON lines keyed by query index.
	req := serve.QueryRequest{Queries: []serve.QuerySpec{
		{Pred: "subset", Items: []setcontain.Item{0, 1}},
		{Pred: "equality", Items: []setcontain.Item{0, 1, 2}},
		{Pred: "superset", Items: []setcontain.Item{0, 1, 2, 3, 4}},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("POST /query:")
	printResults(resp)

	// The same textual form the CLIs use works on the wire (the +
	// encodes the space: subset{0 5}).
	resp, err = http.Get(base + "/query?q=subset{0+5}")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET /query?q=subset{0+5}:")
	printResults(resp)

	// Huge answers stream in flushed chunks: /stream is /query with a
	// flush after every line, admitted through the same micro-batcher.
	// subset{0} (the hottest item) matches thousands of records,
	// delivered 256 ids per line.
	resp, err = http.Get(base + "/stream?q=subset{0}")
	if err != nil {
		log.Fatal(err)
	}
	chunks, total := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			log.Fatal(err)
		}
		chunks++
		total += len(res.IDs)
	}
	resp.Body.Close()
	fmt.Printf("GET /stream?q=subset{0}: %d ids in %d NDJSON chunks\n\n", total, chunks)

	// Concurrent clients make micro-batching visible in /stats.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				q := fmt.Sprintf("%s/query?q=subset{%d+%d}", base, c%5, 5+(c+r)%20)
				resp, err := http.Get(q)
				if err != nil {
					log.Fatal(err)
				}
				_, _ = bufio.NewReader(resp.Body).WriteTo(new(strings.Builder))
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	resp, err = http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("after 8 concurrent clients x 25 queries:\n")
	fmt.Printf("  queries=%d batches=%d mean batch=%.2f (coalescing %s)\n",
		st.Batcher.Queries, st.Batcher.Batches, st.Batcher.MeanBatch,
		map[bool]string{true: "engaged", false: "idle"}[st.Batcher.MeanBatch > 1])
	hitRate := 0.0
	if total := st.Store.CacheHits + st.Store.PageReads; total > 0 {
		hitRate = float64(st.Store.CacheHits) / float64(total)
	}
	fmt.Printf("  page-cache hit rate %.2f, page reads %d\n", hitRate, st.Store.PageReads)
	for _, p := range st.ShardPlans {
		fmt.Printf("  shard %d: %s, %d records, theta %.2f\n", p.Shard, p.Kind, p.Records, p.Theta)
	}
}

// printResults decodes and prints an NDJSON answer stream, eliding long
// id lists.
func printResults(resp *http.Response) {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			log.Fatal(err)
		}
		if res.More {
			continue // intermediate chunk; the final line carries the count
		}
		ids := res.IDs
		elided := ""
		if len(ids) > 8 {
			ids = ids[:8]
		}
		if res.Count > len(ids) {
			elided = fmt.Sprintf(" … (%d total)", res.Count)
		}
		fmt.Printf("  query %d: ids %v%s err=%q\n", res.Query, ids, elided, res.Error)
	}
	fmt.Println()
}
