package setcontain

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// pinnedPlan is one ShardPlan reduced to the fields a plan decides,
// with Theta as its exact bits.
type pinnedPlan struct {
	Kind          Kind
	Records       int
	BlockPostings int
	ThetaBits     uint64
}

func pinPlans(plans []ShardPlan) []pinnedPlan {
	out := make([]pinnedPlan, len(plans))
	for i, p := range plans {
		out[i] = pinnedPlan{p.Kind, p.Records, p.BlockPostings, math.Float64bits(p.Theta)}
	}
	return out
}

// TestShardPlansPinned holds the shard planner's decisions to constants:
// engine kind, records, frontier block size and the fitted exponent to
// the bit, for the default synthetic collection at several shard counts,
// a uniform collection (every shard the plain inverted file) and an
// explicit WithBlockPostings. A save / open round trip must give them
// back unchanged. A change here moves the pages every sharded build
// writes.
func TestShardPlansPinned(t *testing.T) {
	skewed := dataset.DefaultSynthetic(20_000)
	uniform := skewed
	uniform.ZipfTheta = 0
	cases := []struct {
		name string
		cfg  dataset.SyntheticConfig
		opts []Option
		want []pinnedPlan
	}{
		{"skewed/shards=1", skewed, []Option{WithShards(1)}, []pinnedPlan{
			{OIF, 20000, 128, 0x3fea02836d3530c8},
		}},
		{"skewed/shards=2", skewed, []Option{WithShards(2)}, []pinnedPlan{
			{OIF, 10000, 128, 0x3fea76f5dfeb7a12},
			{OIF, 10000, 128, 0x3fea76f7e845b792},
		}},
		{"skewed/shards=3", skewed, []Option{WithShards(3)}, []pinnedPlan{
			{OIF, 6667, 64, 0x3feadc318e3eea01},
			{OIF, 6667, 64, 0x3feb2bdd1b8bf2d5},
			{OIF, 6666, 64, 0x3feabebd1f0b7010},
		}},
		{"skewed/shards=4", skewed, []Option{WithShards(4)}, []pinnedPlan{
			{OIF, 5000, 64, 0x3feb4e8f2f4c630d},
			{OIF, 5000, 64, 0x3feb71abee0f0e75},
			{OIF, 5000, 64, 0x3feb615778fcec37},
			{OIF, 5000, 64, 0x3feb51b23892c5fd},
		}},
		{"skewed/shards=8", skewed, []Option{WithShards(8)}, []pinnedPlan{
			{OIF, 2500, 32, 0x3fed04c3b9f81ecc},
			{OIF, 2500, 64, 0x3fed3bf12bf5d39e},
			{OIF, 2500, 64, 0x3fec7b174efd9eb4},
			{OIF, 2500, 64, 0x3fecf57934aae218},
			{OIF, 2500, 64, 0x3fecb77a9bea62fa},
			{OIF, 2500, 64, 0x3fecd4cbf13c199f},
			{OIF, 2500, 32, 0x3fed5a98a1f33886},
			{OIF, 2500, 32, 0x3fecbf09cc52cc51},
		}},
		{"uniform/shards=4", uniform, []Option{WithShards(4)}, []pinnedPlan{
			{InvertedFile, 5000, 0, 0x3fc57894a8e8a767},
			{InvertedFile, 5000, 0, 0x3fc5bb2038efadaa},
			{InvertedFile, 5000, 0, 0x3fc55af999c61033},
			{InvertedFile, 5000, 0, 0x3fc65ff69b34953c},
		}},
		{"skewed/shards=2/block=64", skewed, []Option{WithShards(2), WithBlockPostings(64)}, []pinnedPlan{
			{OIF, 10000, 64, 0x3fea76f5dfeb7a12},
			{OIF, 10000, 64, 0x3fea76f7e845b792},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := dataset.GenerateSynthetic(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := New(WrapDataset(d), append([]Option{WithKind(Sharded)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			got := pinPlans(ix.ShardPlans())
			if !slices.Equal(got, tc.want) {
				t.Fatalf("plans\n got %#v\nwant %#v", got, tc.want)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if restored := pinPlans(back.ShardPlans()); !slices.Equal(restored, got) {
				t.Fatalf("plans after Save / Open\n got %#v\nwant %#v", restored, got)
			}
		})
	}
}
