// protostat prints Table 1-style protocol size statistics (LOC, path
// counts, average/max path length) for the C files given on the
// command line. Table 1 for the generated FLASH corpus, beside the
// paper's figures, is paperbench's.
//
// Usage:
//
//	protostat [-I dir]... file.c...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flashmc/internal/cc/cpp"
	"flashmc/internal/core"
	"flashmc/internal/flash"
	"flashmc/internal/paper"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var includes stringList
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Parse()

	// Usage and load errors print no table, not even its header.
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "protostat: no input files")
		os.Exit(2)
	}
	prog, err := core.Load("cli", cpp.Layered(cpp.OSSource{}, flash.HeaderSource()), flag.Args(), includes...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "protostat: %v\n", err)
		os.Exit(1)
	}
	for _, e := range prog.ParseErrors {
		fmt.Fprintf(os.Stderr, "protostat: %v\n", e)
	}
	st := paper.ProgramStats(prog)
	fmt.Printf("%-12s %8s %8s %10s %10s\n", "unit", "LOC", "paths", "avg-path", "max-path")
	fmt.Printf("%-12s %8d %8d %10d %10d\n", "input", st.LOC, st.Paths, st.AvgLen, st.MaxLen)
}
