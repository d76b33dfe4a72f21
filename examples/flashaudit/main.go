// flashaudit runs the paper's complete checker suite over the whole
// synthetic FLASH code base (five protocols plus common code, ~80K
// lines) and prints a Table 7-style summary — the "34 bugs in
// well-tested FLASH protocol code" experience.
package main

import (
	"fmt"
	"log"
	"time"

	"flashmc"
	"flashmc/internal/core"
)

func main() {
	start := time.Now()
	corpus := flashmc.GenerateCorpus(1)

	programs := map[string]*core.Program{}
	totalLOC := 0
	for _, p := range corpus.Protocols {
		prog, err := flashmc.LoadFiles(p.Name, p.Source(), p.RootFiles)
		if err != nil {
			log.Fatalf("%s: %v", p.Name, err)
		}
		programs[p.Name] = prog
		totalLOC += prog.SourceLOC
	}
	fmt.Printf("loaded %d protocols, %d lines of protocol C (%.2fs)\n\n",
		len(corpus.Protocols), totalLOC, time.Since(start).Seconds())

	fmt.Printf("%-24s %6s %9s %9s\n", "checker", "LOC", "reports", "applied")
	grand := 0
	for _, chk := range flashmc.FlashCheckers() {
		reports := 0
		applied := 0
		for _, p := range corpus.Protocols {
			got, _ := chk.CheckCov(programs[p.Name], p.Spec)
			reports += len(got)
			if a := chk.Applied(programs[p.Name]); a > 0 {
				applied += a
			}
		}
		fmt.Printf("%-24s %6d %9d %9d\n", chk.Name(), chk.LOC(), reports, applied)
		grand += reports
	}
	fmt.Printf("\n%d total reports in %.2fs — the paper's Table 7 splits these\n",
		grand, time.Since(start).Seconds())
	fmt.Println("into 34 errors, 6 minor findings, and the false-positive classes;")
	fmt.Println("run `go test ./internal/paper -run TestTable7 -v` for the exact join.")
}
