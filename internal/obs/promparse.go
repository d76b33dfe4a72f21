package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is a tiny, dependency-free parser for the Prometheus text
// exposition format (version 0.0.4) — just enough to gate, in CI,
// that what /metrics and `mcheck -metrics` emit is well-formed: names
// are legal, HELP/TYPE comments are coherent, every sample line
// parses, histogram series belong to a declared histogram family, and
// no sample is duplicated.

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one metric family: its TYPE, HELP, and samples.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// baseFamily maps a sample name to the family it belongs to, folding
// histogram/summary series suffixes onto their parent when the parent
// is declared with a compatible TYPE.
func baseFamily(families map[string]*PromFamily, name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if f, ok := families[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return base
		}
	}
	return name
}

// parseValue accepts Prometheus sample values: Go float syntax plus
// +Inf/-Inf/NaN spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN", "nan":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `{k="v",...}` starting at s (which must begin
// with '{'), returning the labels and the rest of the line.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	rest := s[1:]
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("bad label name %q", name)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label %s value not quoted", name)
		}
		// Scan the quoted value honoring backslash escapes.
		i := 1
		var val strings.Builder
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("unterminated label value for %s", name)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, "", fmt.Errorf("dangling escape in label %s", name)
				}
				switch rest[i+1] {
				case '\\', '"':
					val.WriteByte(rest[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %s", rest[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		rest = strings.TrimLeft(rest[i:], " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %s", name)
	}
}

// labelsKey canonicalizes a label set for duplicate detection.
func labelsKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, k+"="+v)
	}
	// Insertion-order independence matters, not speed.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// ParsePrometheus parses text exposition format, returning the
// families keyed by name. It rejects malformed comment lines, invalid
// metric or label names, unparsable values, samples whose histogram
// series have no declared parent family, re-declared TYPE lines, and
// duplicate samples.
func ParsePrometheus(r io.Reader) (map[string]*PromFamily, error) {
	families := map[string]*PromFamily{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fail := func(format string, args ...any) (map[string]*PromFamily, error) {
			return nil, fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return fail("malformed HELP: %q", line)
				}
				f := ensureFamily(families, fields[2])
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 || !validMetricName(fields[2]) {
					return fail("malformed TYPE: %q", line)
				}
				if !promTypes[fields[3]] {
					return fail("unknown metric type %q", fields[3])
				}
				f := ensureFamily(families, fields[2])
				if f.Type != "" {
					return fail("TYPE re-declared for %s", fields[2])
				}
				if len(f.Samples) > 0 {
					return fail("TYPE for %s after its samples", fields[2])
				}
				f.Type = fields[3]
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp]
		nameEnd := strings.IndexAny(line, "{ \t")
		if nameEnd < 0 {
			return fail("sample without value: %q", line)
		}
		name := line[:nameEnd]
		if !validMetricName(name) {
			return fail("bad metric name %q", name)
		}
		rest := line[nameEnd:]
		labels := map[string]string{}
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest)
			if err != nil {
				return fail("%v in %q", err, line)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fail("expected value [timestamp], got %q", rest)
		}
		value, err := parseValue(fields[0])
		if err != nil {
			return fail("bad value %q: %v", fields[0], err)
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fail("bad timestamp %q", fields[1])
			}
		}
		famName := baseFamily(families, name)
		f := ensureFamily(families, famName)
		dupKey := name + "{" + labelsKey(labels) + "}"
		if seen[dupKey] {
			return fail("duplicate sample %s", dupKey)
		}
		seen[dupKey] = true
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, f := range families {
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", name, err)
			}
		}
	}
	return families, nil
}

func ensureFamily(families map[string]*PromFamily, name string) *PromFamily {
	if f, ok := families[name]; ok {
		return f
	}
	f := &PromFamily{Name: name}
	families[name] = f
	return f
}

// histSeries accumulates one labeled series of a histogram family
// (one set of non-le labels).
type histSeries struct {
	lastLE    float64
	lastCount float64
	buckets   int
	infCount  float64
	count     float64
}

// checkHistogram enforces the histogram series contract per series
// (series = one set of labels excluding "le"): a +Inf bucket whose
// count equals name_count, and cumulative, ascending bucket counts.
// Labeled families — one series per label value — validate each
// series independently.
func checkHistogram(f *PromFamily) error {
	series := map[string]*histSeries{}
	get := func(labels map[string]string) *histSeries {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		key := labelsKey(rest)
		h, ok := series[key]
		if !ok {
			h = &histSeries{infCount: -1, count: -1}
			series[key] = h
		}
		return h
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			h := get(s.Labels)
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket without le label")
			}
			v, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("bad le %q", le)
			}
			if h.buckets > 0 && v <= h.lastLE {
				return fmt.Errorf("buckets not ascending at le=%q", le)
			}
			if s.Value < h.lastCount {
				return fmt.Errorf("bucket counts not cumulative at le=%q", le)
			}
			h.lastLE, h.lastCount = v, s.Value
			h.buckets++
			if le == "+Inf" {
				h.infCount = s.Value
			}
		case f.Name + "_count":
			get(s.Labels).count = s.Value
		}
	}
	if len(series) == 0 {
		return fmt.Errorf("no buckets")
	}
	for key, h := range series {
		at := ""
		if key != "" {
			at = fmt.Sprintf(" in series {%s}", key)
		}
		if h.buckets == 0 {
			return fmt.Errorf("no buckets%s", at)
		}
		if h.infCount < 0 {
			return fmt.Errorf("missing +Inf bucket%s", at)
		}
		if h.count >= 0 && h.infCount != h.count {
			return fmt.Errorf("+Inf bucket %v != count %v%s", h.infCount, h.count, at)
		}
	}
	return nil
}
