package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// goldenSeeds are the seeds testdata/golden.json covers.
var goldenSeeds = []int64{1, 2}

// writeGoldenFile answers the leading operations of every workload for the
// golden seeds by direct engine analysis and writes request key → bits.
func writeGoldenFile(path string) error {
	o := newOracle()
	ctx := context.Background()
	gf := goldenFile{}
	for _, w := range workloads {
		keys := map[string]int64{}
		for _, seed := range goldenSeeds {
			for _, op := range sequence(w.name, seed, w.goldenOps) {
				if op.batch != nil {
					joint, per, err := o.batch(ctx, op.batch)
					if err != nil {
						return fmt.Errorf("%s batch: %w", w.name, err)
					}
					keys[batchKey(op.batch)] = joint
					for i, r := range op.batch {
						keys[r.key()] = per[i]
					}
					continue
				}
				bits, err := o.bits(ctx, op.single)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				keys[op.single.key()] = bits
			}
		}
		gf[w.name] = keys
		fmt.Fprintf(os.Stderr, "golden: %s: %d answers\n", w.name, len(keys))
	}
	data, err := json.MarshalIndent(gf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
