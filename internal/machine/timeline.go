package machine

import (
	"strings"

	"dpa/internal/sim"
)

// Timeline is a binned per-node activity record: for each node and time
// bin, the cycles spent in each charge category. Memory is fixed by the
// bin width, so tracing full-scale runs is cheap.
type Timeline struct {
	BinWidth sim.Time
	// Bins[node][bin][category] = cycles.
	Bins [][][sim.NumCategories]sim.Time
}

// newTimeline returns an empty timeline for the given node count.
func newTimeline(binWidth sim.Time, nodes int) *Timeline {
	return &Timeline{
		BinWidth: binWidth,
		Bins:     make([][][sim.NumCategories]sim.Time, nodes),
	}
}

// Trace returns the last Run's timeline (nil before the first Run and
// whenever Config.TraceBins is not positive).
func (m *Machine) Trace() *Timeline { return m.trace }

// record distributes the interval [start, end) of category cat over bins.
func (t *Timeline) record(node int, cat sim.Category, start, end sim.Time) {
	if start >= end {
		return
	}
	// Grow once to cover the interval's last bin, rather than one bin per
	// loop iteration.
	lastBin := int((end - 1) / t.BinWidth)
	if nb := t.Bins[node]; lastBin >= len(nb) {
		t.Bins[node] = append(nb, make([][sim.NumCategories]sim.Time, lastBin+1-len(nb))...)
	}
	for start < end {
		bin := int(start / t.BinWidth)
		binEnd := sim.Time(bin+1) * t.BinWidth
		if binEnd > end {
			binEnd = end
		}
		t.Bins[node][bin][cat] += binEnd - start
		start = binEnd
	}
}

// AppendShifted folds another timeline into this one with every interval
// shifted forward by off, attributing each source bin's totals to the
// target bin containing the source bin's (shifted) start. When off is a
// multiple of the shared bin width — the common case, phase makespans
// measured on the same grid — the placement is exact. The source is not
// modified. Both timelines must share the same bin width.
func (t *Timeline) AppendShifted(o *Timeline, off sim.Time) {
	if o == nil {
		return
	}
	if o.BinWidth != t.BinWidth {
		panic("machine: AppendShifted across different bin widths")
	}
	for len(t.Bins) < len(o.Bins) {
		t.Bins = append(t.Bins, nil)
	}
	for n, nb := range o.Bins {
		for b, cats := range nb {
			start := sim.Time(b)*o.BinWidth + off
			bin := int(start / t.BinWidth)
			if cur := t.Bins[n]; bin >= len(cur) {
				t.Bins[n] = append(cur, make([][sim.NumCategories]sim.Time, bin+1-len(cur))...)
			}
			for c := range cats {
				t.Bins[n][bin][c] += cats[c]
			}
		}
	}
}

// ganttClass maps a category to a display class: '#' local computation,
// '+' communication overhead, '.' idle, ' ' nothing.
func ganttClass(c [sim.NumCategories]sim.Time) byte {
	local := c[sim.Compute] + c[sim.MemOv] + c[sim.SchedOv] + c[sim.HashOv]
	comm := c[sim.SendOv] + c[sim.RecvOv] + c[sim.PollOv] + c[sim.HandlerOv]
	idle := c[sim.Idle] + c[sim.FetchStall]
	switch {
	case local == 0 && comm == 0 && idle == 0:
		return ' '
	case local >= comm && local >= idle:
		return '#'
	case comm >= idle:
		return '+'
	default:
		return '.'
	}
}

// Gantt renders one text row per node, width columns wide, each column
// showing the dominant activity ('#' compute, '+' communication overhead,
// '.' idle) in that slice of the run.
func (t *Timeline) Gantt(width int) []string {
	maxBins := 0
	for _, nb := range t.Bins {
		if len(nb) > maxBins {
			maxBins = len(nb)
		}
	}
	rows := make([]string, len(t.Bins))
	if maxBins == 0 {
		for i := range rows {
			rows[i] = strings.Repeat(" ", width)
		}
		return rows
	}
	// Never render more columns than there are bins: with width > maxBins
	// the same bin would repeat across several columns, stretching the row
	// and misrepresenting short runs.
	if width > maxBins {
		width = maxBins
	}
	for n, nb := range t.Bins {
		var sb strings.Builder
		for col := 0; col < width; col++ {
			// Merge the bins that fall into this column.
			lo := col * maxBins / width
			hi := (col + 1) * maxBins / width
			if hi == lo {
				hi = lo + 1
			}
			var merged [sim.NumCategories]sim.Time
			for b := lo; b < hi && b < len(nb); b++ {
				for c := range merged {
					merged[c] += nb[b][c]
				}
			}
			sb.WriteByte(ganttClass(merged))
		}
		rows[n] = sb.String()
	}
	return rows
}
