package report

import (
	"bytes"
	"image/png"
	"testing"

	"dvdc/internal/metrics"
)

func parabola() *metrics.Series {
	s := &metrics.Series{Label: "p"}
	for i := 1; i <= 60; i++ {
		x := float64(i)
		s.Append(x, (x-30)*(x-30)+5)
	}
	return s
}

func TestWritePNGProducesDecodableImage(t *testing.T) {
	var buf bytes.Buffer
	c := Chart{Title: "t", XLabel: "x", YLabel: "y"}
	if err := c.WritePNGWithMinima(&buf, parabola()); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 800 || b.Dy() != 500 {
		t.Errorf("default geometry %dx%d, want 800x500", b.Dx(), b.Dy())
	}
	// The canvas must not be blank: count non-white pixels.
	nonWhite := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := img.At(x, y).RGBA()
			if r != 0xffff || g != 0xffff || bb != 0xffff {
				nonWhite++
			}
		}
	}
	if nonWhite < 1000 {
		t.Errorf("only %d non-white pixels: chart looks empty", nonWhite)
	}
}

func TestWritePNGCustomGeometryAndLog(t *testing.T) {
	var buf bytes.Buffer
	c := Chart{Width: 400, Height: 300, LogX: true, LogY: true}
	s := &metrics.Series{Label: "log"}
	for _, x := range []float64{1, 10, 100, 1000} {
		s.Append(x, x*x)
	}
	if err := c.WritePNGWithMinima(&buf, s); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 400 || img.Bounds().Dy() != 300 {
		t.Error("custom geometry ignored")
	}
}

func TestWritePNGNoData(t *testing.T) {
	var buf bytes.Buffer
	c := Chart{}
	if err := c.WritePNGWithMinima(&buf, &metrics.Series{Label: "empty"}); err == nil {
		t.Error("empty series should error")
	}
}

func TestWritePNGMultipleSeries(t *testing.T) {
	var buf bytes.Buffer
	a := parabola()
	b := &metrics.Series{Label: "b"}
	for i := 1; i <= 60; i++ {
		b.Append(float64(i), float64(200+i))
	}
	if err := (Chart{}).WritePNGWithMinima(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty output")
	}
}
