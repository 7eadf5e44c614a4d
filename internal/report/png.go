package report

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"dvdc/internal/metrics"
)

// PNG rendering of series charts with the standard library's image stack:
// axes, log scaling, per-series colors, point markers with connecting
// segments, and minima markers. Good enough to drop straight into a paper
// reproduction report.

// seriesPalette holds distinguishable colors for up to six curves.
var seriesPalette = []color.RGBA{
	{0x1f, 0x77, 0xb4, 0xff}, // blue
	{0xd6, 0x27, 0x28, 0xff}, // red
	{0x2c, 0xa0, 0x2c, 0xff}, // green
	{0xff, 0x7f, 0x0e, 0xff}, // orange
	{0x94, 0x67, 0xbd, 0xff}, // purple
	{0x8c, 0x56, 0x4b, 0xff}, // brown
}

// WritePNGWithMinima renders the series as a chart image and marks each
// series' minimum with a small square. Geometry and scales come from the
// Chart configuration (Width/Height are interpreted in pixels here,
// defaulting to 800x500).
func (c Chart) WritePNGWithMinima(w io.Writer, series ...*metrics.Series) error {
	width, height := c.Width, c.Height
	if width < 200 {
		width = 800
	}
	if height < 150 {
		height = 500
	}
	const margin = 50
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	// White background.
	for i := range img.Pix {
		img.Pix[i] = 0xff
	}

	tx := func(x float64) float64 {
		if c.LogX {
			return math.Log10(math.Max(x, 1e-300))
		}
		return x
	}
	ty := func(y float64) float64 {
		if c.LogY {
			return math.Log10(math.Max(y, 1e-300))
		}
		return y
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, tx(s.X[i]))
			maxX = math.Max(maxX, tx(s.X[i]))
			minY = math.Min(minY, ty(s.Y[i]))
			maxY = math.Max(maxY, ty(s.Y[i]))
		}
	}
	if minX > maxX {
		return fmt.Errorf("report: no data to plot")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	plotW := width - 2*margin
	plotH := height - 2*margin
	px := func(x float64) int { return margin + int((tx(x)-minX)/(maxX-minX)*float64(plotW)) }
	py := func(y float64) int { return height - margin - int((ty(y)-minY)/(maxY-minY)*float64(plotH)) }

	grey := color.RGBA{0x33, 0x33, 0x33, 0xff}
	lightGrey := color.RGBA{0xdd, 0xdd, 0xdd, 0xff}
	// Gridlines: quartiles of each axis.
	for i := 0; i <= 4; i++ {
		gx := margin + plotW*i/4
		gy := margin + plotH*i/4
		drawLine(img, gx, margin, gx, height-margin, lightGrey)
		drawLine(img, margin, gy, width-margin, gy, lightGrey)
	}
	// Axes.
	drawLine(img, margin, height-margin, width-margin, height-margin, grey)
	drawLine(img, margin, margin, margin, height-margin, grey)

	for si, s := range series {
		col := seriesPalette[si%len(seriesPalette)]
		prevX, prevY := -1, -1
		for i := range s.X {
			x, y := px(s.X[i]), py(s.Y[i])
			if prevX >= 0 {
				drawLine(img, prevX, prevY, x, y, col)
			}
			drawDot(img, x, y, 2, col)
			prevX, prevY = x, y
		}
		if s.Len() > 0 {
			mx, my := s.MinY()
			drawSquare(img, px(mx), py(my), 5, color.RGBA{0, 0, 0, 0xff})
		}
		// Legend swatch: a filled block per series in the top-left corner.
		for dy := 0; dy < 10; dy++ {
			for dx := 0; dx < 18; dx++ {
				img.SetRGBA(margin+6+dx, margin+6+si*14+dy, col)
			}
		}
	}
	return png.Encode(w, img)
}

// drawLine draws with the integer Bresenham algorithm, clipped to bounds.
func drawLine(img *image.RGBA, x0, y0, x1, y1 int, col color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		setClipped(img, x0, y0, col)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func drawDot(img *image.RGBA, x, y, r int, col color.RGBA) {
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy <= r*r {
				setClipped(img, x+dx, y+dy, col)
			}
		}
	}
}

func drawSquare(img *image.RGBA, x, y, r int, col color.RGBA) {
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if abs(dx) == r || abs(dy) == r {
				setClipped(img, x+dx, y+dy, col)
			}
		}
	}
}

func setClipped(img *image.RGBA, x, y int, col color.RGBA) {
	if image.Pt(x, y).In(img.Rect) {
		img.SetRGBA(x, y, col)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
