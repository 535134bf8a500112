package stats

import (
	"fmt"
	"io"
	"strings"
)

// Point is one (x, y) measurement with an optional confidence half-width.
type Point struct {
	X   float64
	Y   float64
	Err float64 // 95% CI half-width on Y; 0 if not applicable
}

// Series is a named sequence of measurements, e.g. one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point to the series.
func (s *Series) Append(x, y, err float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Err: err})
}

// Figure is a collection of curves sharing axes — the unit the experiment
// harness produces for each of the paper's figures.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure with axis labels.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, registers and returns a new named curve.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// WriteTSV writes the figure as a tab-separated table: one row per x value,
// one column pair (y, ci) per series. Rows follow the x values of the first
// series; series are expected to share x grids (the harness guarantees this).
func (f *Figure) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name, s.Name+"_ci95")
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		return nil
	}
	for i, p := range f.Series[0].Points {
		row := []string{fmt.Sprintf("%g", p.X)}
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.4f", s.Points[i].Y), fmt.Sprintf("%.4f", s.Points[i].Err))
			} else {
				row = append(row, "", "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws a crude fixed-size ASCII chart of the figure, one rune per
// series. It is used by cmd/figgen for a quick visual check of curve shapes.
func (f *Figure) RenderASCII(w io.Writer, width, height int) error {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX, minY, maxY := f.bounds()
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	marks := []rune("*o+x#@%&")
	for si, s := range f.Series {
		m := marks[si%len(marks)]
		for _, p := range s.Points {
			col := int((p.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = m
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", f.Title); err != nil {
		return err
	}
	for i, line := range grid {
		label := ""
		if i == 0 {
			label = fmt.Sprintf("%.4g", maxY)
		} else if i == height-1 {
			label = fmt.Sprintf("%.4g", minY)
		}
		if _, err := fmt.Fprintf(w, "%10s |%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX); err != nil {
		return err
	}
	for si, s := range f.Series {
		if _, err := fmt.Fprintf(w, "    %c = %s\n", marks[si%len(marks)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

func (f *Figure) bounds() (minX, maxX, minY, maxY float64) {
	first := true
	for _, s := range f.Series {
		for _, p := range s.Points {
			if first {
				minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
	}
	return minX, maxX, minY, maxY
}
