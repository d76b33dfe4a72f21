package depot

// Artifact provenance. Every recomputed artifact can carry a compact
// sidecar record — stored as a normal depot artifact under a derived
// prov/v1 key — answering "who produced this, from what, and at what
// cost". Warm reads then explain themselves: mcheck -explain resolves
// a report back to the process, inputs and wall cost that produced it.
//
// The sidecar is deliberately a separate artifact rather than a field
// inside the payload: artifact bytes stay byte-identical between cold
// and warm runs (the CI gates cmp report streams), and provenance
// rides the existing sharding, atomic-write and GC machinery for
// free. A missing sidecar is not an error — artifacts written by
// older binaries, or evicted sidecars, simply have no explanation.

// ProvKind is the artifact kind provenance sidecars are stored under.
const ProvKind = "prov/v1"

// Provenance explains one artifact: the inputs it was derived from,
// who ran it, and what it cost. What the artifact is (its kind,
// checker, version and source fingerprint) is the key it is stored
// under, which the reader already holds.
type Provenance struct {
	// Deps are the key ids of artifacts consumed while producing this
	// one (a lanes task's function summaries, for example).
	Deps []string `json:"deps,omitempty"`
	// Producer identifies who computed the artifact: "pid:<n>" of the
	// process that ran the check.
	Producer string `json:"producer,omitempty"`
	// TraceID is the request trace the computation ran under.
	TraceID string `json:"trace_id,omitempty"`
	// WallUS is the wall-clock cost of the computation in
	// microseconds.
	WallUS int64 `json:"wall_us"`
}

// ProvKey derives the sidecar key for an artifact key. The sidecar is
// addressed by the artifact's content address, so Get(key) and
// GetProv(key) always agree on which artifact is being explained.
func ProvKey(key Key) Key {
	return Key{Kind: ProvKind, Source: key.ID()}
}

// PutProv stores the provenance sidecar for key.
func (d *Depot) PutProv(key Key, p *Provenance) error {
	if p == nil {
		return nil
	}
	return d.PutJSON(ProvKey(key), p)
}

// GetProv round-trips the provenance sidecar for key. ok is false
// when no sidecar exists (pre-provenance artifact, or evicted).
func (d *Depot) GetProv(key Key) (*Provenance, bool) {
	var p Provenance
	if !d.GetJSON(ProvKey(key), &p) {
		return nil, false
	}
	return &p, true
}
