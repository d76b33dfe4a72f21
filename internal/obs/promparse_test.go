package obs

import (
	"strings"
	"testing"
)

// Escaped label values must round-trip exactly, and each
// escape must be rejected when malformed.
func TestParseEscapedLabelValues(t *testing.T) {
	cases := map[string]string{
		`m{l="a\"b"} 1` + "\n":   "a\"b",
		`m{l="a\\b"} 1` + "\n":   `a\b`,
		`m{l="a\nb"} 1` + "\n":   "a\nb",
		`m{l="\\\"\n"} 1` + "\n": "\\\"\n",
	}
	for input, want := range cases {
		fams, err := ParsePrometheus(strings.NewReader(input))
		if err != nil {
			t.Errorf("%q: %v", input, err)
			continue
		}
		if got := fams["m"].Samples[0].Labels["l"]; got != want {
			t.Errorf("%q: label = %q, want %q", input, got, want)
		}
	}
	bad := []string{
		`m{l="a\tb"} 1` + "\n", // \t is not a legal escape
		`m{l="a\"} 1` + "\n",   // escape eats the closing quote
		`m{l="a` + "\n",        // unterminated value
	}
	for _, input := range bad {
		if _, err := ParsePrometheus(strings.NewReader(input)); err == nil {
			t.Errorf("parser accepted malformed escape %q", input)
		}
	}
}

// Histogram bucket bounds must be strictly ascending.
func TestParseRejectsBadBucketOrder(t *testing.T) {
	cases := map[string]string{
		"non-ascending le": "# TYPE h histogram\n" +
			`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"duplicate le": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
		"unparsable le": "# TYPE h histogram\n" +
			`h_bucket{le="wide"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n",
	}
	for name, input := range cases {
		if _, err := ParsePrometheus(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parser accepted %q", name, input)
		}
	}
}
