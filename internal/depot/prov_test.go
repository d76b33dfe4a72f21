package depot

import (
	"reflect"
	"testing"
)

// TestProvenanceRoundTrip: a provenance sidecar stored beside an
// artifact round-trips through PutProv/GetProv in both the in-memory
// and on-disk depots, and is absent for artifacts that never wrote
// one.
func TestProvenanceRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		key := Key{Kind: "reports/v3", Source: "fp-src", Checker: "lock", Version: "3", Options: "opt-fp"}
		if err := d.Put(key, []byte(`{"reports":[]}`)); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.GetProv(key); ok {
			t.Fatal("provenance present before PutProv")
		}
		want := &Provenance{
			Deps:     []string{"dep-a", "dep-b"},
			Producer: "pid:42",
			TraceID:  "req-7",
			WallUS:   1500,
		}
		if err := d.PutProv(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := d.GetProv(key)
		if !ok {
			t.Fatal("provenance missing after PutProv")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		// A different artifact key (version bump) has its own sidecar
		// address — the bumped artifact is unexplained until written.
		bumped := key
		bumped.Version = "4"
		if _, ok := d.GetProv(bumped); ok {
			t.Fatal("version-bumped key shares a sidecar")
		}
	}
}
