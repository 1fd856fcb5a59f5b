// Canonical payload codecs for the artifact classes the engine
// persists. Every codec is deterministic and exact: rationals render
// as big.Rat.RatString() (always lowest terms, so equal rationals
// encode identically), integers in decimal, rows newline-separated,
// entries space-separated. Decoders re-validate the mathematical
// invariants the in-memory constructors enforce (stochastic rows,
// ladder ordering, the scorecard's gap identity), so a decoded
// artifact is exactly as trustworthy as a freshly computed one — the
// envelope checksum rules out bit rot, the constructors rule out
// structurally invalid data that was checksummed correctly.

package store

import (
	"bytes"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"minimaxdp/internal/baseline"
	"minimaxdp/internal/consumer"
	"minimaxdp/internal/mechanism"
	"minimaxdp/internal/rational"
)

// appendRatRows appends one line per row, entries as RatStrings.
func appendRatRows(b *bytes.Buffer, rows [][]*big.Rat) {
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.RatString())
		}
		b.WriteByte('\n')
	}
}

// lineReader walks a payload line by line. Payloads are in-memory
// (they already passed the envelope), so splitting eagerly is fine
// and avoids bufio.Scanner's token-size limit — a single row of a
// large-n mechanism can exceed 64KiB.
type lineReader struct {
	lines []string
	next  int
}

func newLineReader(payload []byte) *lineReader {
	s := strings.TrimSuffix(string(payload), "\n")
	return &lineReader{lines: strings.Split(s, "\n")}
}

func (r *lineReader) line() (string, error) {
	if r.next >= len(r.lines) {
		return "", fmt.Errorf("store: payload truncated at line %d", r.next+1)
	}
	l := r.lines[r.next]
	r.next++
	return l, nil
}

func (r *lineReader) done() error {
	if r.next != len(r.lines) {
		return fmt.Errorf("store: %d trailing payload lines", len(r.lines)-r.next)
	}
	return nil
}

// header reads a line and checks its first field, returning the rest.
func (r *lineReader) header(want string, argc int) ([]string, error) {
	l, err := r.line()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(l)
	if len(fields) != argc+1 || fields[0] != want {
		return nil, fmt.Errorf("store: expected %q header with %d args, got %q", want, argc, l)
	}
	return fields[1:], nil
}

// ratStrings reads count lines of width space-separated entries each.
func (r *lineReader) ratStrings(count, width int) ([][]string, error) {
	out := make([][]string, count)
	for i := 0; i < count; i++ {
		l, err := r.line()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(l)
		if len(fields) != width {
			return nil, fmt.Errorf("store: row %d has %d entries, want %d", i, len(fields), width)
		}
		out[i] = fields
	}
	return out, nil
}

func parseCount(s, what string, min, max int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < min || (max >= 0 && v > max) {
		return 0, fmt.Errorf("store: bad %s %q", what, s)
	}
	return v, nil
}

// maxDecodeDim bounds decoded matrix/mechanism dimensions, so a
// well-checksummed but absurd header cannot drive an allocation bomb.
const maxDecodeDim = 1 << 16

// --- tailored LP solutions ------------------------------------------------

// EncodeTailored renders a tailored optimum: its loss value plus the
// optimal mechanism (as the engine serves it, the consumer's optimal
// interaction with G_{n,α}).
func EncodeTailored(t *consumer.Tailored) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "tailored %d\nloss %s\n", t.Mechanism.N(), t.Loss.RatString())
	rows := make([][]*big.Rat, t.Mechanism.Size())
	for i := range rows {
		rows[i] = t.Mechanism.Row(i)
	}
	appendRatRows(&b, rows)
	return b.Bytes()
}

// DecodeTailored parses EncodeTailored output.
func DecodeTailored(payload []byte) (*consumer.Tailored, error) {
	r := newLineReader(payload)
	args, err := r.header("tailored", 1)
	if err != nil {
		return nil, err
	}
	n, err := parseCount(args[0], "domain bound", 0, maxDecodeDim)
	if err != nil {
		return nil, err
	}
	lossArgs, err := r.header("loss", 1)
	if err != nil {
		return nil, err
	}
	lossVal, err := rational.Parse(lossArgs[0])
	if err != nil {
		return nil, fmt.Errorf("store: bad loss value: %w", err)
	}
	if lossVal.Sign() < 0 {
		return nil, fmt.Errorf("store: negative minimax loss %s", lossVal.RatString())
	}
	strs, err := r.ratStrings(n+1, n+1)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	mc, err := mechanism.FromStrings(strs)
	if err != nil {
		return nil, err
	}
	return &consumer.Tailored{Mechanism: mc, Loss: lossVal}, nil
}

// --- compare scorecards ---------------------------------------------------

// EncodeCompare renders an optimality-gap scorecard: the header fixes
// the domain bound, consumer model name, privacy level, and entry
// count; then the tailored-optimal loss and one line per baseline.
// Baseline spec strings and model names are space-free by
// construction, so the line format stays field-splittable.
func EncodeCompare(c *baseline.Comparison) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "compare %d %s %s %d\n", c.N, c.Model, c.Alpha.RatString(), len(c.Entries))
	fmt.Fprintf(&b, "tailored %s\n", c.TailoredLoss.RatString())
	for _, e := range c.Entries {
		fmt.Fprintf(&b, "entry %s %s %s %s %s\n",
			e.Spec, e.Loss.RatString(), e.InteractionLoss.RatString(),
			e.Gap.RatString(), e.BestAlpha.RatString())
	}
	return b.Bytes()
}

// DecodeCompare parses EncodeCompare output. Beyond the per-field
// rational parses it re-validates the scorecard's arithmetic identity
// (Gap = InteractionLoss − TailoredLoss per entry, via
// baseline.Comparison.Validate), so a checksum-valid but internally
// inconsistent entry is rejected rather than served.
func DecodeCompare(payload []byte) (*baseline.Comparison, error) {
	r := newLineReader(payload)
	args, err := r.header("compare", 4)
	if err != nil {
		return nil, err
	}
	n, err := parseCount(args[0], "domain bound", 0, maxDecodeDim)
	if err != nil {
		return nil, err
	}
	model := args[1]
	if model == "" {
		return nil, fmt.Errorf("store: empty compare model")
	}
	alpha, err := rational.Parse(args[2])
	if err != nil {
		return nil, fmt.Errorf("store: bad compare alpha: %w", err)
	}
	count, err := parseCount(args[3], "entry count", 1, maxDecodeDim)
	if err != nil {
		return nil, err
	}
	tailoredArgs, err := r.header("tailored", 1)
	if err != nil {
		return nil, err
	}
	tailoredLoss, err := rational.Parse(tailoredArgs[0])
	if err != nil {
		return nil, fmt.Errorf("store: bad tailored loss: %w", err)
	}
	out := &baseline.Comparison{
		N:            n,
		Alpha:        alpha,
		Model:        model,
		TailoredLoss: tailoredLoss,
		Entries:      make([]baseline.Entry, 0, count),
	}
	for i := 0; i < count; i++ {
		fields, err := r.header("entry", 5)
		if err != nil {
			return nil, err
		}
		spec, err := baseline.ParseSpec(fields[0])
		if err != nil {
			return nil, fmt.Errorf("store: compare entry %d: %w", i, err)
		}
		vals := make([]*big.Rat, 4)
		for j, f := range fields[1:] {
			vals[j], err = rational.Parse(f)
			if err != nil {
				return nil, fmt.Errorf("store: compare entry %d field %d: %w", i, j+1, err)
			}
		}
		out.Entries = append(out.Entries, baseline.Entry{
			Spec:            spec.String(),
			Loss:            vals[0],
			InteractionLoss: vals[1],
			Gap:             vals[2],
			BestAlpha:       vals[3],
		})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
