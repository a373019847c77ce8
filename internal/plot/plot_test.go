package plot

import (
	"strings"
	"testing"

	"anex/internal/dataset"
	"anex/internal/subspace"
)

func testView(t *testing.T) *dataset.View {
	t.Helper()
	// A diagonal band plus one off-diagonal point at index 4.
	cols := [][]float64{
		{0.1, 0.4, 0.7, 0.9, 0.1},
		{0.1, 0.4, 0.7, 0.9, 0.9},
		{0, 0, 0, 0, 0},
	}
	ds, err := dataset.New("plot-test", cols, []string{"alpha", "beta", "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	return ds.View(subspace.New(0, 1))
}

// scatterString is Scatter into a string.
func scatterString(v *dataset.View, opts Options) (string, error) {
	var b strings.Builder
	err := Scatter(&b, v, opts)
	return b.String(), err
}

func TestScatterBasics(t *testing.T) {
	out, err := scatterString(testView(t), Options{Width: 20, Height: 10, Highlight: []int{4}, Title: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	if !strings.Contains(out, "✗") {
		t.Errorf("highlight marker missing:\n%s", out)
	}
	// The highlighted point (0.1, 0.9) lands top-left: the marker must
	// appear before (above) the first density shade row-wise.
	markLine, dotLine := -1, -1
	for i, line := range strings.Split(out, "\n") {
		if strings.ContainsRune(line, '✗') && markLine == -1 {
			markLine = i
		}
		if strings.ContainsRune(line, '·') && dotLine == -1 {
			dotLine = i
		}
	}
	if markLine == -1 || dotLine == -1 || markLine > dotLine {
		t.Errorf("marker row %d vs first inlier row %d:\n%s", markLine, dotLine, out)
	}
}

func TestScatterRejectsLowDim(t *testing.T) {
	cols := [][]float64{{1, 2, 3}}
	ds, err := dataset.New("1d", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Scatter(&strings.Builder{}, ds.FullView(), Options{}); err == nil {
		t.Error("1d view should be rejected")
	}
	if err := Scatter(&strings.Builder{}, nil, Options{}); err == nil {
		t.Error("nil view should be rejected")
	}
}

func TestScatterConstantColumn(t *testing.T) {
	cols := [][]float64{{1, 1, 1}, {2, 2, 2}}
	ds, err := dataset.New("const", cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scatterString(ds.FullView(), Options{Width: 10, Height: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("empty render")
	}
}

func TestScatterCustomMarkerAndDefaults(t *testing.T) {
	out, err := scatterString(testView(t), Options{Highlight: []int{4}, Marker: '!'})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "!") {
		t.Error("custom marker missing")
	}
	// Default dimensions: 20 grid rows + 3 decoration lines.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 23 {
		t.Errorf("%d lines with default height", len(lines))
	}
	// Out-of-range highlights are ignored, not fatal.
	if _, err := scatterString(testView(t), Options{Highlight: []int{999}}); err != nil {
		t.Errorf("out-of-range highlight: %v", err)
	}
}

func TestShadeMonotone(t *testing.T) {
	prev := -1
	for c := 1; c <= 10; c++ {
		idx := -1
		r := shadeFor(c, 10)
		for i, s := range shades {
			if s == r {
				idx = i
			}
		}
		if idx < prev {
			t.Errorf("shade not monotone at count %d", c)
		}
		prev = idx
	}
	if shadeFor(1, 1) != shades[0] {
		t.Error("single-count shade")
	}
}
