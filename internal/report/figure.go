package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Point is an (x-label, value) pair.
type Point struct {
	Label string
	Value float64
}

// Figure renders one or more series as a text chart: one row per x position,
// one column block per series, with proportional bars.
type Figure struct {
	Title  string
	Series []Series
	// LogScale renders bar lengths on log10(1+v).
	LogScale bool
	// Width is the maximum bar width in characters.
	Width int
	// Annotations attach event labels to x positions.
	Annotations map[string]string
}

// NewFigure starts a figure.
func NewFigure(title string) *Figure {
	return &Figure{Title: title, Width: 40, Annotations: map[string]string{}}
}

// Add appends a series.
func (f *Figure) Add(name string, pts []Point) {
	f.Series = append(f.Series, Series{Name: name, Points: pts})
}

// Annotate attaches an event label at the x position.
func (f *Figure) Annotate(label, event string) {
	if prev, ok := f.Annotations[label]; ok {
		event = prev + "; " + event
	}
	f.Annotations[label] = event
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	if len(f.Series) == 0 {
		return b.String()
	}
	// Collect the union of x labels in first-series order, then any extras.
	var labels []string
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.Label] {
				seen[p.Label] = true
				labels = append(labels, p.Label)
			}
		}
	}
	// Per-series max for scaling.
	maxVal := 0.0
	for _, s := range f.Series {
		for _, p := range s.Points {
			if v := f.scale(p.Value); v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	byLabel := make([]map[string]float64, len(f.Series))
	for i, s := range f.Series {
		byLabel[i] = map[string]float64{}
		for _, p := range s.Points {
			byLabel[i][p.Label] = p.Value
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for si, s := range f.Series {
		if len(f.Series) > 1 {
			fmt.Fprintf(&b, "-- %s --\n", s.Name)
		}
		for _, l := range labels {
			v, ok := byLabel[si][l]
			if !ok {
				continue
			}
			bar := strings.Repeat("#", int(f.scale(v)/maxVal*float64(f.Width)))
			fmt.Fprintf(&b, "%s | %-*s %s", pad(l, labelW), f.Width, bar, formatVal(v))
			if ev, ok := f.Annotations[l]; ok && si == 0 {
				fmt.Fprintf(&b, "   <- %s", ev)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (f *Figure) scale(v float64) float64 {
	if f.LogScale {
		return math.Log10(1 + v)
	}
	return v
}

func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return Count(int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// Histogram renders (bucket-label, count) bars sorted by bucket order given.
func Histogram(title string, buckets []Point, width int) string {
	f := NewFigure(title)
	f.Width = width
	f.Add("hist", buckets)
	return f.String()
}

// TopN reduces a map to its n largest entries as points, descending.
func TopN(m map[string]int64, n int) []Point {
	type kv struct {
		k string
		v int64
	}
	all := make([]kv, 0, len(m))
	for k, v := range m {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = Point{Label: all[i].k, Value: float64(all[i].v)}
	}
	return out
}
