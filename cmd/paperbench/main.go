// Command paperbench regenerates every table and figure of the paper's
// evaluation section plus the ablations (docs/ARCHITECTURE.md
// §Substitutions and ablations), writing the full
// report to stdout (and optionally a file via -o). This is the one-shot
// reproduction entry point:
//
//	go run ./cmd/paperbench > report.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rtoss"
)

func main() {
	out := flag.String("o", "", "also write the report to this file")
	cols := flag.Int("cols", 78, "ASCII canvas width for Fig 8")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	if err := run(w, *cols); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, cols int) error {
	fmt.Fprintln(w, "R-TOSS reproduction report")
	fmt.Fprintln(w, "==========================")
	fmt.Fprintln(w)

	for _, step := range []struct {
		name string
		fn   func() (string, error)
	}{
		{"Table 1", func() (string, error) { t, err := rtoss.Table1(); return render(t, err) }},
		{"Table 2", func() (string, error) { t, err := rtoss.Table2(); return render(t, err) }},
		{"Table 3", func() (string, error) { t, err := rtoss.Table3(); return render(t, err) }},
		{"Fig 4", rtoss.Fig4},
		{"Fig 5", rtoss.Fig5},
		{"Fig 6", rtoss.Fig6},
		{"Fig 7", rtoss.Fig7},
		{"Fig 8", func() (string, error) { return rtoss.Fig8(cols) }},
	} {
		s, err := step.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Fprintln(w, s)
	}

	fmt.Fprintln(w, "Ablations")
	fmt.Fprintln(w, "---------")
	for _, model := range []string{"YOLOv5s", "RetinaNet"} {
		dfs, err := rtoss.AblationDFS(model)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "A1 DFS grouping (%s): %d searches with grouping vs %d without (%.1f%% saved), sparsity %.4f vs %.4f\n",
			model, dfs.WithSearches, dfs.WithoutSearches,
			100*(1-float64(dfs.WithSearches)/float64(dfs.WithoutSearches)),
			dfs.SparsityWith, dfs.SparsityWithout)
	}
	conn, err := rtoss.AblationConnectivity("YOLOv5s")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A2 connectivity pruning (YOLOv5s): mAP %.2f with kernel removal (PD) vs %.2f without (R-TOSS-3EP)\n",
		conn.MAPWithConnectivity, conn.MAPWithoutConnectivity)
	oneone, err := rtoss.Ablation1x1("YOLOv5s")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A3 1x1 transform (YOLOv5s, 2EP): compression %.2fx with Algorithm 3 vs %.2fx without\n",
		oneone.CompressionWith, oneone.CompressionWithout)
	return nil
}

func render(t *rtoss.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}
