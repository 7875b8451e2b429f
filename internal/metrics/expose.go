package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format rendered by WriteText.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every registered family in the Prometheus text
// exposition format: families sorted by name, series sorted by label values,
// histograms expanded into cumulative _bucket series plus _sum and _count.
// Families with no series yet still emit their HELP/TYPE header, so a
// scraper always sees the full schema.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.write(bw)
	}
	return bw.Flush()
}

// ServeHTTP implements http.Handler: GET returns the text exposition.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "metrics endpoint requires GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", TextContentType)
	_ = r.WriteText(w)
}

// writeHistogram renders one histogram series. labels is the pre-rendered
// `k="v",...` prefix ("" for an unlabeled histogram); the le label is
// appended to it.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	counts := h.snapshotCounts()
	var cum int64
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(bound), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
}

// labelString renders `name="value"` pairs with Prometheus escaping.
func labelString(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	return h
}
