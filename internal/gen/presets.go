package gen

import (
	"fmt"
	"sort"

	"gminer/internal/graph"
)

// Preset names the six scaled-down synthetic stand-ins for the paper's
// Table 2 datasets. Sizes are scaled down by roughly 1000x so the full
// evaluation harness runs on one machine, but the *relative* ordering of
// |V|, |E| and skew between datasets follows Table 2:
//
//	Skitter    1.7M /  11M   -> skitter-s     power-law, sparse
//	Orkut      3.1M / 117M   -> orkut-s       power-law, dense (avg deg ~76)
//	BTC        165M / 773M   -> btc-s         huge, very sparse (avg deg ~4.7)
//	Friendster  66M / 1.8B   -> friendster-s  largest edge count
//	Tencent    1.9M /  50M   -> tencent-s     attributed, high-dim tags
//	DBLP       1.8M / 8.4M   -> dblp-s        attributed co-authorship
type Preset string

const (
	Skitter    Preset = "skitter-s"
	Orkut      Preset = "orkut-s"
	BTC        Preset = "btc-s"
	Friendster Preset = "friendster-s"
	Tencent    Preset = "tencent-s"
	DBLP       Preset = "dblp-s"
)

// Presets lists all dataset presets in Table 2 order.
func Presets() []Preset {
	return []Preset{Skitter, Orkut, BTC, Friendster, Tencent, DBLP}
}

// NonAttributed lists the four non-attributed presets used by TC/MCF
// (Table 3) in size order.
func NonAttributed() []Preset {
	return []Preset{Skitter, Orkut, BTC, Friendster}
}

// Scale multiplies preset sizes; 1.0 is the default laptop-scale setting.
// Tests use smaller scales via Build's scale parameter.

// Load reads the graph the binaries' -graph, -format, -preset and -scale
// flags name: a file in adjacency-list ("adj") or SNAP edge-list
// ("edges") format, else the preset built at the scale.
func Load(path, format, preset string, scale float64) (*graph.Graph, error) {
	switch {
	case path != "":
		switch format {
		case "adj":
			return graph.LoadFile(path)
		case "edges":
			return graph.LoadEdgeListFile(path)
		default:
			return nil, fmt.Errorf("unknown format %q (want adj or edges)", format)
		}
	case preset != "":
		return Build(Preset(preset), scale)
	default:
		return nil, fmt.Errorf("need -graph or -preset")
	}
}

// SourceName names a Load source in stats lines: the file, else the
// preset.
func SourceName(path, preset string) string {
	if path != "" {
		return path
	}
	return preset
}

// Build generates the preset dataset at the given scale in (0, 1].
// Generation is deterministic for a given (preset, scale).
func Build(p Preset, scale float64) (*graph.Graph, error) {
	if scale <= 0 {
		scale = 1.0
	}
	sc := func(x int) int {
		v := int(float64(x) * scale)
		if v < 16 {
			v = 16
		}
		return v
	}
	sce := func(x int64) int64 {
		v := int64(float64(x) * scale)
		if v < 64 {
			v = 64
		}
		return v
	}
	switch p {
	case Skitter:
		// Sparse power-law: ~2k vertices, ~11k edges, high max degree.
		g := RMAT(RMATConfig{Scale: log2(sc(2048)), Edges: sce(11000), Seed: 101})
		return g, nil
	case Orkut:
		// Dense power-law: ~4k vertices, ~120k edges (avg deg ~60).
		g := RMAT(RMATConfig{Scale: log2(sc(4096)), Edges: sce(120000), Seed: 102})
		return g, nil
	case BTC:
		// Very sparse, larger vertex count: ~16k vertices, ~40k edges.
		g := RMAT(RMATConfig{Scale: log2(sc(16384)), Edges: sce(40000), A: 0.45, B: 0.25, C: 0.25, Seed: 103})
		return g, nil
	case Friendster:
		// Largest edge count: ~8k vertices, ~220k edges.
		g := RMAT(RMATConfig{Scale: log2(sc(8192)), Edges: sce(220000), Seed: 104})
		return g, nil
	case Tencent:
		// Attributed social graph: ~2k vertices, ~50k edges, 16-dim tags.
		g := RMAT(RMATConfig{Scale: log2(sc(2048)), Edges: sce(50000), Seed: 105})
		AssignAttrs(g, 16, 30, 1105)
		return g, nil
	case DBLP:
		// Attributed co-authorship with community structure.
		g, _ := Community(CommunityConfig{
			Communities: sc(120),
			MinSize:     8,
			MaxSize:     24,
			PIn:         0.35,
			Bridges:     sce(3000),
			AttrDim:     5,
			AttrRange:   10,
			Seed:        106,
		})
		return g, nil
	default:
		return nil, fmt.Errorf("gen: unknown preset %q", p)
	}
}

// MustBuild is Build that panics on error, for tests and benchmarks.
func MustBuild(p Preset, scale float64) *graph.Graph {
	g, err := Build(p, scale)
	if err != nil {
		panic(err)
	}
	return g
}

// BuildLabeled builds the preset and assigns uniform labels from the
// 7-letter alphabet used by the paper's GM experiments.
func BuildLabeled(p Preset, scale float64) (*graph.Graph, error) {
	g, err := Build(p, scale)
	if err != nil {
		return nil, err
	}
	AssignLabels(g, 7, int64(1000)+int64(len(p)))
	return g, nil
}

// BuildAttributed builds the preset; if it is non-attributed, assigns the
// paper's 5-dim [1,10] uniform attribute vectors (footnote 7).
func BuildAttributed(p Preset, scale float64) (*graph.Graph, error) {
	g, err := Build(p, scale)
	if err != nil {
		return nil, err
	}
	if !g.Attributed() {
		AssignAttrs(g, 5, 10, int64(2000)+int64(len(p)))
	}
	return g, nil
}

// log2 returns ceil(log2(n)) for n >= 1.
func log2(n int) int {
	s := 0
	for (1 << s) < n {
		s++
	}
	return s
}

// DegreeHistogram returns the sorted (degree, count) pairs of g, used by
// generator tests to check for heavy tails.
func DegreeHistogram(g *graph.Graph) [][2]int {
	counts := make(map[int]int)
	g.ForEach(func(v *graph.Vertex) bool {
		counts[v.Degree()]++
		return true
	})
	out := make([][2]int, 0, len(counts))
	for d, c := range counts {
		out = append(out, [2]int{d, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
