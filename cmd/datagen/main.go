// Command datagen generates the synthetic lineitem-like workload table and
// emits it as CSV, or prints distribution statistics — useful to inspect
// exactly what the experiments sweep over.
//
// Usage:
//
//	datagen -rows 100000 > lineitem.csv
//	datagen -rows 100000 -stats
//	datagen -rows 100000 -zipf-a 1.5 -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"robustmap/internal/datagen"
	"robustmap/internal/record"
)

func main() {
	var (
		rows    = flag.Int64("rows", 1<<17, "table cardinality")
		seed    = flag.Int64("seed", 2009, "generator seed")
		payload = flag.Int("payload", 0, "comment payload bytes (0 = default)")
		zipfA   = flag.Float64("zipf-a", 0, "Zipf parameter for column a (0 = exact permutation)")
		zipfB   = flag.Float64("zipf-b", 0, "Zipf parameter for column b (0 = exact permutation)")
		stats   = flag.Bool("stats", false, "print distribution statistics instead of rows")
		limit   = flag.Int64("limit", 0, "emit at most this many rows (0 = all)")
	)
	flag.Parse()

	gen := datagen.Catalog{{Name: "lineitem", Rows: *rows, Seed: *seed, PayloadBytes: *payload,
		ZipfA: *zipfA, ZipfB: *zipfB}}
	if err := gen.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	if *stats {
		printStats(gen)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	sch := gen.Schema(0)
	for i := 0; i < sch.NumColumns(); i++ {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, sch.Column(i).Name)
	}
	fmt.Fprintln(w)
	var emitted int64
	err := gen.Generate(0, func(row []record.Value) error {
		if *limit > 0 && emitted >= *limit {
			return errLimit
		}
		for i, v := range row {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprint(w, v.String())
		}
		fmt.Fprintln(w)
		emitted++
		return nil
	})
	if err != nil && err != errLimit {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

var errLimit = fmt.Errorf("limit reached")

func printStats(gen datagen.Catalog) {
	var n int64
	distinctA := map[int64]int64{}
	distinctB := map[int64]int64{}
	var maxA, maxB int64
	gen.Generate(0, func(row []record.Value) error {
		a, b := row[1].AsInt(), row[2].AsInt()
		distinctA[a]++
		distinctB[b]++
		if a > maxA {
			maxA = a
		}
		if b > maxB {
			maxB = b
		}
		n++
		return nil
	})
	fmt.Printf("rows:           %d\n", n)
	fmt.Printf("distinct a:     %d (max %d)\n", len(distinctA), maxA)
	fmt.Printf("distinct b:     %d (max %d)\n", len(distinctB), maxB)
	fmt.Printf("a is exact permutation: %v\n", int64(len(distinctA)) == n)
	fmt.Printf("b is exact permutation: %v\n", int64(len(distinctB)) == n)
	for _, frac := range datagen.PowerOfTwoFractions(8) {
		thr, want := datagen.SelectivityThreshold(n, frac)
		var got int64
		for v, c := range distinctA {
			if v < thr {
				got += c
			}
		}
		fmt.Printf("  a < %-8d selects %8d rows (expected %d, fraction %g)\n",
			thr, got, want, frac)
	}
}
