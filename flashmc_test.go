package flashmc_test

import (
	"strings"
	"testing"

	"flashmc"
)

const demoChecker = `
{ #include "flash-includes.h" }
sm wait_for_db {
	decl { scalar } addr, buf;
	start:
	{ WAIT_FOR_DB_FULL(addr); } ==> stop
	| { MISCBUS_READ_DB(addr, buf); } ==>
		{ err("Buffer not synchronized"); }
	;
}
`

func demoFiles(body string) map[string]string {
	files := flashmc.FlashHeader()
	files["main.c"] = "#include \"flash-includes.h\"\n" + body
	return files
}

func TestPublicQuickstart(t *testing.T) {
	prog, err := flashmc.LoadFiles("demo", demoFiles(`
void handler(void) {
	unsigned a;
	unsigned v;
	v = MISCBUS_READ_DB(a, 0);
}`), []string{"main.c"})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := flashmc.RunMetal(prog, demoChecker)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !strings.Contains(reports[0].Msg, "not synchronized") {
		t.Fatalf("reports: %v", reports)
	}
}

func TestPublicCompileMetal(t *testing.T) {
	mp, err := flashmc.CompileMetal(demoChecker, flashmc.FlashHeader())
	if err != nil {
		t.Fatal(err)
	}
	if mp.Name != "wait_for_db" || mp.LOC < 5 {
		t.Errorf("program %q loc %d", mp.Name, mp.LOC)
	}
}

func TestPublicCorpusAndCheckers(t *testing.T) {
	corpus := flashmc.GenerateCorpus(5)
	p := corpus.Protocol("sci")
	if p == nil {
		t.Fatal("no sci protocol")
	}
	prog, err := flashmc.LoadFiles(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, chk := range flashmc.FlashCheckers() {
		reports, _ := chk.CheckCov(prog, p.Spec)
		total += len(reports)
	}
	if total == 0 {
		t.Error("checker suite found nothing in a corpus with seeded defects")
	}
}

func TestPublicFuzz(t *testing.T) {
	corpus := flashmc.GenerateCorpus(5)
	p := corpus.Protocol("sci")
	prog, err := flashmc.LoadFiles(p.Name, p.Source(), p.RootFiles)
	if err != nil {
		t.Fatal(err)
	}
	res := flashmc.Fuzz(prog, p.Spec, 30, 9)
	if res.Handlers == 0 {
		t.Fatal("no handlers fuzzed")
	}
}
