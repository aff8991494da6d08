package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Registry names are sanitized to the Prometheus
// charset and prefixed "smvx_"; a "{key=value,...}" suffix on a registry
// name becomes Prometheus labels, so
//
//	Observe("rendezvous.cycles{category=ret_only}", v)
//
// exports as
//
//	smvx_rendezvous_cycles_bucket{category="ret_only",le="..."} ...
//
// Histograms emit cumulative _bucket lines at the occupied power-of-two
// upper bounds, a le="+Inf" bucket, then _sum and _count. Output is fully
// deterministic: families sort by name, series by label string.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	fams := make(promFamilies)
	if m != nil {
		m.each(func(name string, v uint64) {
			fams.add(name, "counter")
			fams.put(name, promSeries{c: v})
		}, func(name string, v float64) {
			fams.add(name, "gauge")
			fams.put(name, promSeries{g: v})
		}, func(name string, h *Hist) {
			fams.add(name, "histogram")
			fams.put(name, promSeries{h: *h})
		})
	}
	return writeProm(w, fams)
}

// promSeries is one labeled time series within a family; exactly one of
// c/g/h is meaningful, per the family's type.
type promSeries struct {
	c uint64
	g float64
	h Hist
}

// promFamily groups every label combination of one sanitized metric name.
type promFamily struct {
	typ    string
	series map[string]promSeries // keyed by rendered label interior
}

type promFamilies map[string]*promFamily

func (f promFamilies) add(rawName, typ string) {
	base, _ := splitPromLabels(rawName)
	if f[base] == nil {
		f[base] = &promFamily{typ: typ, series: make(map[string]promSeries)}
	}
}

func (f promFamilies) put(rawName string, s promSeries) {
	base, labels := splitPromLabels(rawName)
	f[base].series[labels] = s
}

// splitPromLabels splits a registry name into its sanitized, smvx_-prefixed
// family name and the rendered label interior (`k="v",...`, keys sorted).
// Names without a well-formed {...} suffix have no labels.
func splitPromLabels(name string) (base, labels string) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return "smvx_" + promSanitize(name), ""
	}
	inner := name[open+1 : len(name)-1]
	pairs := strings.Split(inner, ",")
	rendered := make([]string, 0, len(pairs))
	for _, p := range pairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			continue
		}
		rendered = append(rendered, promSanitize(k)+`="`+promEscape(v)+`"`)
	}
	sort.Strings(rendered)
	return "smvx_" + promSanitize(name[:open]), strings.Join(rendered, ",")
}

// promSanitize maps a name onto the Prometheus charset [a-zA-Z0-9_].
func promSanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func writeProm(w io.Writer, fams promFamilies) error {
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fam := fams[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, fam.typ)
		labelSets := make([]string, 0, len(fam.series))
		for ls := range fam.series {
			labelSets = append(labelSets, ls)
		}
		sort.Strings(labelSets)
		for _, ls := range labelSets {
			s := fam.series[ls]
			switch fam.typ {
			case "counter":
				fmt.Fprintf(&b, "%s%s %d\n", name, promLabels(ls), s.c)
			case "gauge":
				fmt.Fprintf(&b, "%s%s %s\n", name, promLabels(ls), formatJSONNumber(s.g))
			case "histogram":
				writePromHist(&b, name, ls, &s.h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels wraps a rendered label interior in braces ("" stays "").
func promLabels(interior string) string {
	if interior == "" {
		return ""
	}
	return "{" + interior + "}"
}

// writePromHist emits one histogram series: cumulative buckets at each
// occupied power-of-two upper bound, +Inf, _sum, _count.
func writePromHist(b *strings.Builder, name, labels string, h *Hist) {
	var cum uint64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		// Bucket i holds v with bits.Len64(v)==i: upper bound 2^i-1
		// (i=64 wraps to MaxUint64, which is exactly right).
		ub := uint64(1)<<uint(i) - 1
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(joinLabels(labels, fmt.Sprintf(`le="%d"`, ub))), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(joinLabels(labels, `le="+Inf"`)), h.Count)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, promLabels(labels), h.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, promLabels(labels), h.Count)
}

func joinLabels(interior, extra string) string {
	if interior == "" {
		return extra
	}
	return interior + "," + extra
}
