package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series (and mounted counter sets)
// in the Prometheus text exposition format, version 0.0.4. Output order is
// deterministic: metric families sorted by name, series within a family
// sorted by their rendered label set, so the exposition is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.Collect()
	type row struct {
		labels []Label
		kind   seriesKind
		value  float64
		hist   HistSnapshot
	}
	fams := map[string][]row{}
	r.mu.Lock()
	for _, s := range r.byKey {
		rw := row{labels: s.labels, kind: s.kind}
		switch s.kind {
		case kindCounter:
			rw.value = float64(s.counter.Value())
		case kindGauge:
			rw.value = float64(s.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			rw.value = s.fn()
		case kindHistogram:
			rw.hist = s.hist.Snapshot()
		}
		fams[s.name] = append(fams[s.name], rw)
	}
	mounts := append([]counterMount(nil), r.mounts...)
	r.mu.Unlock()

	for _, m := range mounts {
		snap := m.set.Snapshot()
		for _, entry := range m.set.Names() {
			fams[m.name] = append(fams[m.name], row{
				labels: []Label{{Key: m.labelKey, Value: entry}},
				kind:   kindCounter,
				value:  float64(snap[entry]),
			})
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		rows := fams[name]
		sort.Slice(rows, func(i, j int) bool {
			return renderLabels(rows[i].labels) < renderLabels(rows[j].labels)
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, rows[0].kind.promType()); err != nil {
			return err
		}
		for _, rw := range rows {
			if rw.kind == kindHistogram {
				if err := writeHistogram(w, name, rw.labels, rw.hist); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(rw.labels), formatValue(rw.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket lines with
// le bounds, the +Inf bucket, then _sum and _count.
func writeHistogram(w io.Writer, name string, labels []Label, h HistSnapshot) error {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		bl := append(append([]Label(nil), labels...), Label{Key: "le", Value: formatValue(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(bl), cum); err != nil {
			return err
		}
	}
	bl := append(append([]Label(nil), labels...), Label{Key: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(bl), h.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), h.Total)
	return err
}

// renderLabels renders {k="v",...} ("" for no labels), keys in sorted order
// (series labels are stored sorted; histogram code appends le last, which is
// fine — Prometheus does not require sorted label keys, only stable ones).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a sample value: integral values as plain integers
// (counters read naturally), everything else in Go's shortest float form.
func formatValue(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
