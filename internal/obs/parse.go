package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Sample is one parsed series line of a Prometheus text exposition.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses a Prometheus text exposition (the format Render emits)
// into samples, skipping comments and blank lines. It understands the subset
// this package renders: escaped label values, +Inf/NaN, histograms as plain
// _bucket/_sum/_count series. The service and federation tests scrape
// /metrics with it, and so does the repository benchmark.
func ParseText(data []byte) ([]Sample, error) {
	var out []Sample
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", ln+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if labels, ok := strings.CutPrefix(rest, "{"); ok {
		var err error
		if rest, err = parseLabels(labels, s.Labels); err != nil {
			return s, err
		}
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads the label pairs that follow a '{' up to the first '}'
// outside a quoted value, and returns the text after that '}'.
func parseLabels(body string, into map[string]string) (string, error) {
	for {
		if rest, ok := strings.CutPrefix(body, "}"); ok {
			return rest, nil
		}
		eq := strings.IndexAny(body, "=}")
		if eq < 0 || body[eq] != '=' || len(body) < eq+2 || body[eq+1] != '"' {
			return "", fmt.Errorf("bad label pair in %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return "", fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(rest[i+1:], ",")
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Find returns the first sample matching name and every given label pair
// (alternating key, value), or false.
func Find(samples []Sample, name string, labels ...string) (Sample, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return Sample{}, false
}
