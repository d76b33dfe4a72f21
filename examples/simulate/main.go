// simulate contrasts the two ways of finding protocol bugs the paper
// discusses: exhaustive static checking versus dynamic simulation.
// It seeds the bitvector protocol's corner-case bugs, finds all of
// them statically in one pass, then shows how many randomized
// simulator trials each needed to surface dynamically — the "worst
// category of systems bugs: those that show up sporadically only after
// days of continuous use."
package main

import (
	"fmt"
	"log"

	"flashmc"
)

func main() {
	corpus := flashmc.GenerateCorpus(1)
	p := corpus.Protocol("bitvector")
	prog, err := flashmc.LoadFiles(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		log.Fatal(err)
	}

	// Seeded real bugs (the ground truth the generator planted).
	type key struct {
		file string
		line int
	}
	seeded := map[key]string{}
	for _, s := range p.Manifest {
		if s.Class == "error" {
			seeded[key{s.File, s.Line}] = s.Note
		}
	}
	fmt.Printf("bitvector: %d seeded corner-case bugs\n\n", len(seeded))

	// Static pass: every checker, one run.
	fmt.Println("static checking (one pass over the source):")
	staticHits := map[key]bool{}
	for _, chk := range flashmc.FlashCheckers() {
		reports, _ := chk.CheckCov(prog, p.Spec)
		for _, r := range reports {
			k := key{r.Pos.File, r.Pos.Line}
			if note, ok := seeded[k]; ok && !staticHits[k] {
				staticHits[k] = true
				fmt.Printf("  [%s] %s:%d  %s\n", chk.Name(), k.file, k.line, note)
			}
		}
	}
	fmt.Printf("  -> %d/%d found immediately\n\n", len(staticHits), len(seeded))

	// Dynamic pass: randomized simulation.
	trials := 200
	fmt.Printf("dynamic simulation (%d randomized activations per handler):\n", trials)
	res := flashmc.Fuzz(prog, p.Spec, trials, 11)
	byLine := res.ByLine()
	found := 0
	for k, note := range seeded {
		if d, ok := byLine[fmt.Sprintf("%s:%d", k.file, k.line)]; ok {
			found++
			fmt.Printf("  trial %3d: %s:%d  %s\n", d.FirstTrial, k.file, k.line, note)
		} else {
			fmt.Printf("  NEVER    : %s:%d  %s\n", k.file, k.line, note)
		}
	}
	fmt.Printf("  -> %d/%d found, each only after the workload hit its corner case\n",
		found, len(seeded))
}
