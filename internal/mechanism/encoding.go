package mechanism

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"

	"minimaxdp/internal/rational"
)

// This file provides lossless serialization for mechanisms: a JSON
// form (rational entries as strings, so round-trips are exact) and the
// whitespace text form the privmech CLI exchanges.

// jsonMechanism is the wire form.
type jsonMechanism struct {
	N    int        `json:"n"`
	Rows [][]string `json:"rows"`
}

// MarshalJSON encodes the mechanism with exact rational entries.
func (mc *Mechanism) MarshalJSON() ([]byte, error) {
	n := mc.N()
	out := jsonMechanism{N: n, Rows: make([][]string, n+1)}
	for i := 0; i <= n; i++ {
		out.Rows[i] = make([]string, n+1)
		for r := 0; r <= n; r++ {
			out.Rows[i][r] = mc.m.At(i, r).RatString()
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a mechanism. The receiver is
// fully replaced on success and untouched on error.
func (mc *Mechanism) UnmarshalJSON(data []byte) error {
	var in jsonMechanism
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("mechanism: decoding JSON: %w", err)
	}
	if len(in.Rows) == 0 {
		return errors.New("mechanism: JSON has no rows")
	}
	if in.N != len(in.Rows)-1 {
		return fmt.Errorf("mechanism: JSON n=%d inconsistent with %d rows", in.N, len(in.Rows))
	}
	decoded, err := FromStrings(in.Rows)
	if err != nil {
		return err
	}
	// The alias tables describe the old matrix: replace them with it.
	mc.m, mc.alias = decoded.m, decoded.alias
	return nil
}

// WriteText writes the whitespace matrix form (one row per line,
// exact rational entries) accepted by ReadText and the privmech CLI.
func (mc *Mechanism) WriteText(w io.Writer) error {
	n := mc.N()
	for i := 0; i <= n; i++ {
		parts := make([]string, n+1)
		for r := 0; r <= n; r++ {
			parts[r] = mc.m.At(i, r).RatString()
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// ReadText parses the whitespace matrix form; blank lines and lines
// starting with '#' are ignored.
func ReadText(r io.Reader) (*Mechanism, error) {
	var rows [][]string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, strings.Fields(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("mechanism: empty text input")
	}
	return FromStrings(rows)
}

// Describe returns a one-line summary (size and exact privacy level)
// used by CLI output and logs.
func (mc *Mechanism) Describe() string {
	return fmt.Sprintf("mechanism on {0..%d}, α = %s", mc.N(), mc.BestAlpha().RatString())
}

// ScaleCheck verifies the row-stochastic invariant and returns the
// number of nonzero entries; a cheap health check for decoded
// mechanisms.
func (mc *Mechanism) ScaleCheck() (nonzeros int, err error) {
	if !mc.m.IsStochastic() {
		return 0, ErrNotStochastic
	}
	n := mc.N()
	for i := 0; i <= n; i++ {
		for r := 0; r <= n; r++ {
			if mc.m.At(i, r).Sign() != 0 {
				nonzeros++
			}
		}
	}
	return nonzeros, nil
}

var _ json.Marshaler = (*Mechanism)(nil)
var _ json.Unmarshaler = (*Mechanism)(nil)

// Clone returns an independent copy of the mechanism.
func (mc *Mechanism) Clone() *Mechanism {
	return wrap(mc.m.Clone())
}

// TotalVariationRow returns the total-variation distance between the
// output rows for inputs i and j: ½·Σ_r |x[i][r] − x[j][r]|, exactly.
// Useful for quantifying how distinguishable two true results are
// under the mechanism.
func (mc *Mechanism) TotalVariationRow(i, j int) *big.Rat {
	n := mc.N()
	out := rational.Zero()
	for r := 0; r <= n; r++ {
		d := rational.Sub(mc.m.At(i, r), mc.m.At(j, r))
		out.Add(out, d.Abs(d))
	}
	return out.Mul(out, rational.New(1, 2))
}
