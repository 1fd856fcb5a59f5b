package analysis

import (
	"reflect"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text          string
		want          []string
		justification string
	}{
		{"//dpvet:ignore errdiscard read-only file", []string{"errdiscard"}, "read-only file"},
		{"//dpvet:ignore errdiscard,ratmutate shared justification", []string{"errdiscard", "ratmutate"}, "shared justification"},
		// A bare directive still parses (and suppresses) but its
		// missing justification is an ignoreaudit finding.
		{"//dpvet:ignore floatflow", []string{"floatflow"}, ""},
		{"//dpvet:ignore\trandsource tab-separated", []string{"randsource"}, "tab-separated"},
		// A nested comment (e.g. a fixture want annotation) does not
		// count as justification.
		{"//dpvet:ignore floatflow // want `x`", []string{"floatflow"}, ""},
		{"//dpvet:ignore floatflow real reason // want `x`", []string{"floatflow"}, "real reason"},
		{"//dpvet:ignore", nil, ""},             // analyzer list is mandatory
		{"//dpvet:ignoreerrdiscard", nil, ""},   // not a directive
		{"// dpvet:ignore errdiscard", nil, ""}, // space breaks the directive prefix
		{"// plain comment", nil, ""},
	}
	for _, c := range cases {
		got, justification, ok := parseIgnore(c.text)
		if c.want == nil {
			if ok {
				t.Errorf("parseIgnore(%q) = %v, want no directive", c.text, got)
			}
			continue
		}
		if !ok || !reflect.DeepEqual(got, c.want) || justification != c.justification {
			t.Errorf("parseIgnore(%q) = %v/%q/%v, want %v/%q", c.text, got, justification, ok, c.want, c.justification)
		}
	}
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		path     string
		suffixes []string
		want     bool
	}{
		{"minimaxdp/internal/lp", []string{"minimaxdp/internal/lp"}, true},
		{"minimaxdp/internal/analysis/x/testdata/src/internal/sample", []string{"internal/sample"}, true},
		{"minimaxdp/internal/lpx", []string{"minimaxdp/internal/lp"}, false},
		{"minimaxdp/internal/notlp", []string{"internal/lp"}, false},
		{"internal/sample", []string{"internal/sample"}, true},
		{"minimaxdp/internal/sample", []string{"internal/sample"}, true},
	}
	for _, c := range cases {
		if got := PathMatches(c.path, c.suffixes); got != c.want {
			t.Errorf("PathMatches(%q, %v) = %v, want %v", c.path, c.suffixes, got, c.want)
		}
	}
}
