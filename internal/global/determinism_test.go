package global

import (
	"bytes"
	"testing"
)

// fixtureSummaries builds a small summary set exercising every field.
func fixtureSummaries() []*Summary {
	return []*Summary{
		{
			Fn: "h_reply", File: "proto.c", Entry: 0, Exit: 2,
			Nodes: []Node{
				{ID: 0, Anns: []string{"send:1", "space:2"}, Calls: []string{"sub_b", "sub_a"},
					File: "proto.c", Line: 10, Succs: []int{1}, Back: []bool{false}},
				{ID: 1, File: "proto.c", Line: 11, Succs: []int{2, 0}, Back: []bool{false, true}},
				{ID: 2, File: "proto.c", Line: 12},
			},
		},
		{Fn: "sub_a", File: "common.c", Entry: 0, Exit: 0, Nodes: []Node{{ID: 0}}},
	}
}

// golden is the pinned canonical encoding of fixtureSummaries. If
// this test fails after an intentional format change, every depot
// content hash changes with it: bump the lane checker's version so
// cached artifacts are invalidated, then update the constant.
const golden = `[{"fn":"h_reply","file":"proto.c","entry":0,"exit":2,` +
	`"nodes":[{"id":0,"anns":["send:1","space:2"],"calls":["sub_b","sub_a"],` +
	`"file":"proto.c","line":10,"succs":[1],"back":[false]},` +
	`{"id":1,"file":"proto.c","line":11,"succs":[2,0],"back":[false,true]},` +
	`{"id":2,"file":"proto.c","line":12}]},` +
	`{"fn":"sub_a","file":"common.c","entry":0,"exit":0,"nodes":[{"id":0}]}]`

func TestMarshalGolden(t *testing.T) {
	b, err := Marshal(fixtureSummaries())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != golden {
		t.Errorf("canonical form drifted:\n got %s\nwant %s", b, golden)
	}
}

// TestMarshalDeterministic marshals the same summaries (and the same
// linked program) twice and compares bytes. Program.Funcs is a map;
// linking in different orders must still serialize identically.
func TestMarshalDeterministic(t *testing.T) {
	a, err := Marshal(fixtureSummaries())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(fixtureSummaries())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("summary marshal not reproducible:\n%s\n%s", a, b)
	}

	fwd := fixtureSummaries()
	rev := fixtureSummaries()
	rev[0], rev[1] = rev[1], rev[0]
	p1, errs := Link(fwd)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	p2, errs := Link(rev)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	b1, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("program marshal depends on link order:\n%s\n%s", b1, b2)
	}
}

// TestFingerprint: a summary's canonical bytes, which the depot's
// content addresses hash, are stable and see node positions.
func TestFingerprint(t *testing.T) {
	marshal := func(s *Summary) []byte {
		b, err := Marshal([]*Summary{s})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	s := fixtureSummaries()[0]
	if !bytes.Equal(marshal(s), marshal(fixtureSummaries()[0])) {
		t.Fatal("canonical form not stable")
	}
	changed := fixtureSummaries()[0]
	changed.Nodes[0].Line++
	if bytes.Equal(marshal(s), marshal(changed)) {
		t.Fatal("canonical form ignores node positions")
	}
}
