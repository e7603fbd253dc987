// Command repro regenerates every table and figure of the paper from the
// synthetic SDRBench substitutes:
//
//	Table 1   compressor inventory
//	Table 2   dataset inventory
//	Table 3   input inventory
//	precision Section 4.2 posit<32,3> vs <32,2> conversion precision
//	fig3      geomean compression ratios, IEEE encoding
//	fig4      geomean compression ratios, posit encoding (+ deltas)
//	fig5      biased-exponent histograms per input
//	fig6      per-file vs global LC pipelines
//
// Usage:
//
//	repro [-exp all|table1|table2|table3|precision|fig3|fig4|fig5|fig6|ext|auto]
//	      [-values N] [-p N] [-verify] [-v]
//
// The "ext" experiment runs this work's extension: the special-purpose
// posit field compressor (internal/positpack) against the best
// general-purpose codec per input. The "auto" experiment scores the
// adaptive codec advisor (internal/advisor): its sample-driven pick per
// input, as an eighth column next to the seven registry codecs, against
// the exhaustive per-file best.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"positbench/internal/core"
	"positbench/internal/posit"
	"positbench/internal/sdrbench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	exp := fs.String("exp", "all", "experiment to reproduce")
	values := fs.Int("values", sdrbench.DefaultValues, "float32 values per input")
	verify := fs.Bool("verify", false, "roundtrip-verify every compression")
	workers := fs.Int("p", 0, "worker parallelism for input prep and codec runs (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print per-measurement progress")
	csvDir := fs.String("csv", "", "also write per-figure CSV files into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	needStudy := map[string]bool{
		"all": true, "table3": true, "precision": true,
		"fig3": true, "fig4": true, "fig5": true, "fig6": true, "ext": true,
		"auto": true,
	}
	needLC := map[string]bool{"all": true, "fig3": true, "fig4": true, "fig6": true}

	switch *exp {
	case "table1":
		fmt.Fprintln(stdout, "Table 1: evaluated compressors")
		fmt.Fprint(stdout, core.Table1())
		return nil
	case "table2":
		fmt.Fprintln(stdout, "Table 2: datasets")
		fmt.Fprint(stdout, core.Table2())
		return nil
	}
	if !needStudy[*exp] {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	// -p bounds both the study's loops and the posit batch converters
	// they call into.
	posit.SetBatchWorkers(*workers)
	opts := core.Options{
		ValuesPerInput: *values,
		WithLC:         needLC[*exp],
		Verify:         *verify,
		Workers:        *workers,
	}
	if *verbose {
		opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	st, err := core.Run(opts)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := st.WriteCSVs(*csvDir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote CSV files to %s\n", *csvDir)
	}

	show := func(name string) bool { return *exp == "all" || *exp == name }
	if show("table1") || *exp == "all" {
		fmt.Fprintln(stdout, "Table 1: evaluated compressors")
		fmt.Fprint(stdout, core.Table1())
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "Table 2: datasets")
		fmt.Fprint(stdout, core.Table2())
		fmt.Fprintln(stdout)
	}
	if show("table3") {
		fmt.Fprintln(stdout, "Table 3: inputs")
		fmt.Fprint(stdout, st.Table3())
		fmt.Fprintln(stdout)
	}
	if show("precision") {
		fmt.Fprintln(stdout, "Section 4.2: posit conversion precision (% of exactly preserved values)")
		fmt.Fprint(stdout, st.RenderPrecision())
		fmt.Fprintln(stdout)
	}
	if show("fig3") {
		fmt.Fprint(stdout, core.RenderFigure("Figure 3: geomean compression ratios, IEEE float encoding", st.Figure3(), false))
		fmt.Fprintln(stdout)
	}
	if show("fig4") {
		fmt.Fprint(stdout, core.RenderFigure("Figure 4: geomean compression ratios, posit<32,3> encoding", st.Figure4(), true))
		fmt.Fprintln(stdout)
	}
	if show("fig5") {
		fmt.Fprintln(stdout, "Figure 5: % of values per biased exponent")
		fmt.Fprint(stdout, st.Figure5())
		fmt.Fprintln(stdout)
	}
	if show("fig6") {
		out, err := st.RenderFigure6()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Figure 6: global vs per-file LC pipelines")
		fmt.Fprint(stdout, out)
		fmt.Fprintln(stdout)
	}
	if show("ext") {
		out, err := st.RenderSpecialPurpose()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Extension: special-purpose posit compressor (positpack) on posit data")
		fmt.Fprint(stdout, out)
		fmt.Fprintln(stdout)
	}
	if show("auto") {
		out, err := st.RenderAutoStudy()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "Extension: adaptive codec selection (advisor pick vs per-file best)")
		fmt.Fprint(stdout, out)
		fmt.Fprintln(stdout)
	}
	if *exp == "all" {
		fmt.Fprintln(stdout, "All measurements:")
		fmt.Fprint(stdout, st.RenderMeasurements())
	}
	return nil
}
