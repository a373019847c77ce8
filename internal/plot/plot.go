// Package plot renders two-dimensional subspace views as terminal scatter
// plots. LookOut's motivation is explicitly PICTORIAL explanation — a
// handful of 2d plots an analyst can eyeball — so the library ships the
// rendering: inliers as density shades, points of interest as markers, axis
// labels from the dataset's feature names.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"anex/internal/dataset"
	"anex/internal/stats"
)

// Options controls the scatter rendering.
type Options struct {
	// Width and Height are the plot grid size in characters; zero means
	// 48×20.
	Width, Height int
	// Highlight marks these point indices with Marker.
	Highlight []int
	// Marker is the rune for highlighted points; zero means '✗'.
	Marker rune
	// Title is printed above the plot.
	Title string
}

// density shades from sparse to dense.
var shades = []rune{'·', ':', '+', '#', '@'}

// Scatter renders the first two dimensions of the view as a text scatter
// plot. Inlier cells are shaded by point count; highlighted points override
// the shade with the marker. Views with fewer than two dimensions are
// rejected.
func Scatter(w io.Writer, v *dataset.View, opts Options) error {
	if v == nil || v.Dim() < 2 {
		return fmt.Errorf("plot: need a ≥ 2-dimensional view")
	}
	width := opts.Width
	if width <= 0 {
		width = 48
	}
	height := opts.Height
	if height <= 0 {
		height = 20
	}
	marker := opts.Marker
	if marker == 0 {
		marker = '✗'
	}

	xs := make([]float64, v.N())
	ys := make([]float64, v.N())
	for i := 0; i < v.N(); i++ {
		p := v.Point(i)
		xs[i] = p[0]
		ys[i] = p[1]
	}
	xlo, xhi := stats.MinMax(xs)
	ylo, yhi := stats.MinMax(ys)
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}

	counts := make([][]int, height)
	marks := make([][]bool, height)
	for r := range counts {
		counts[r] = make([]int, width)
		marks[r] = make([]bool, width)
	}
	cellOf := func(i int) (row, col int) {
		col = int((xs[i] - xlo) / (xhi - xlo) * float64(width-1))
		row = height - 1 - int((ys[i]-ylo)/(yhi-ylo)*float64(height-1))
		return row, col
	}
	highlighted := make(map[int]bool, len(opts.Highlight))
	for _, p := range opts.Highlight {
		if p >= 0 && p < v.N() {
			highlighted[p] = true
		}
	}
	maxCount := 0
	for i := 0; i < v.N(); i++ {
		r, c := cellOf(i)
		if highlighted[i] {
			marks[r][c] = true
			continue
		}
		counts[r][c]++
		if counts[r][c] > maxCount {
			maxCount = counts[r][c]
		}
	}

	var b strings.Builder
	ds := v.Dataset()
	xName := fmt.Sprintf("dim %d", v.Subspace()[0])
	yName := fmt.Sprintf("dim %d", v.Subspace()[1])
	if ds != nil {
		xName = ds.FeatureName(v.Subspace()[0])
		yName = ds.FeatureName(v.Subspace()[1])
	}
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	fmt.Fprintf(&b, "%s ↑ (%.3g … %.3g)\n", yName, ylo, yhi)
	for r := 0; r < height; r++ {
		b.WriteString("  │")
		for c := 0; c < width; c++ {
			switch {
			case marks[r][c]:
				b.WriteRune(marker)
			case counts[r][c] == 0:
				b.WriteByte(' ')
			default:
				b.WriteRune(shadeFor(counts[r][c], maxCount))
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("  └")
	b.WriteString(strings.Repeat("─", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "   %s → (%.3g … %.3g)\n", xName, xlo, xhi)
	_, err := io.WriteString(w, b.String())
	return err
}

func shadeFor(count, max int) rune {
	if max <= 1 {
		return shades[0]
	}
	idx := int(math.Round(float64(count-1) / float64(max-1) * float64(len(shades)-1)))
	return shades[idx]
}
