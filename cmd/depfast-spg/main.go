// Command depfast-spg runs a traced DepFastRaft deployment and emits
// its slowness propagation graph (the paper's Figure 2) as an ASCII
// table and optionally Graphviz DOT, together with the fail-slow
// fault-tolerance verification report.
//
//	depfast-spg -dot spg.dot
package main

import (
	"flag"
	"fmt"
	"os"

	"depfast/internal/harness"
	"depfast/internal/trace"
)

func main() {
	var (
		dotOut  = flag.String("dot", "", "write Graphviz DOT to this file")
		jsonOut = flag.String("json", "", "write the raw wait records as JSON lines to this file (analyze with depfast-trace)")
	)
	flag.Parse()

	// The figure2 row of the experiment table is the traced run; its
	// report is the graph, the verification verdict, and the DOT file.
	o := harness.DefaultOptions()
	o.Dot = *dotOut
	out, err := harness.RunRow("figure2", o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "depfast-spg:", err)
		os.Exit(1)
	}
	fmt.Print(out.Text)
	col := out.Results[0].Collector
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "depfast-spg:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.WriteJSON(f, col.Records()); err != nil {
			fmt.Fprintln(os.Stderr, "depfast-spg:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *jsonOut)
	}
}
