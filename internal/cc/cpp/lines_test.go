package cpp

import (
	"reflect"
	"strings"
	"testing"
)

// splitLinesRef is splitLogicalLines as it was written with
// strings.Split, kept as the reference the Cut walk must agree with.
func splitLinesRef(text string) []logicalLine {
	text = stripBlockComments(text)
	raw := strings.Split(text, "\n")
	out := make([]logicalLine, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		start := i + 1
		line := raw[i]
		for i+1 < len(raw) {
			head, ok := continued(line)
			if !ok {
				break
			}
			line = head + raw[i+1]
			i++
		}
		out = append(out, logicalLine{line: start, text: line})
	}
	return out
}

// CheckLogicalLines fails t unless splitLogicalLines and the Split
// reference agree on text; the seed-corpus test in package cpp_test
// calls it.
func CheckLogicalLines(t *testing.T, name, text string) {
	t.Helper()
	if got, want := splitLogicalLines(text), splitLinesRef(text); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: splitLogicalLines = %q,\nSplit version %q", name, got, want)
	}
}

// TestSplitLogicalLinesMatchesSplit: the Cut walk yields the Split
// version's logical lines, start lines included, on every line-ending
// and continuation shape.
func TestSplitLogicalLinesMatchesSplit(t *testing.T) {
	for _, src := range []string{
		"",
		"\n",
		"\n\n\n",
		"int x;",
		"int x;\n",
		"int x;\nint y;",
		"int x;\r\nint y;\r\n",
		"\r\n\r\nint x;\r\n",
		"int x;\r",
		"#define A 1 \\\n  + 2\nint x;\n",
		"#define A 1 \\\r\n  + 2\r\nint x;\r\n",
		"a \\\nb \\\nc\nd\n",
		"a \\\n\\\n\\\nb\n",
		"trailing \\",
		"trailing \\\n",
		"trailing \\\r\n",
		"\\\n",
		"\\",
		"x \\ \ny\n",
		"/* a\nb */ #define X \\\n 1\nX\n",
		"// c \\\nint x;\n",
	} {
		CheckLogicalLines(t, src, src)
	}
}
