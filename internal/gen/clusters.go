package gen

import (
	"math"
	"math/rand"

	"streamsum/internal/geom"
)

// ClustersConfig parameterizes the standalone cluster-set generator used
// by the matching experiments (Figs. 8-9): the pattern base is populated
// with clusters of varied shape families so that matching quality is
// measurable (a base of identical blobs would make every method look
// perfect).
type ClustersConfig struct {
	// Dim is the dimensionality (2..4 supported; extra dims get small
	// independent spreads). Default 2.
	Dim int
	// MinPoints/MaxPoints bound each cluster's member count
	// (defaults 150/600).
	MinPoints, MaxPoints int
	// Region is the placement range per dimension (default 200).
	Region float64
	// Seed makes generation reproducible.
	Seed int64
}

func (c *ClustersConfig) defaults() {
	if c.Dim < 2 {
		c.Dim = 2
	}
	if c.MinPoints <= 0 {
		c.MinPoints = 150
	}
	if c.MaxPoints <= c.MinPoints {
		c.MaxPoints = c.MinPoints + 450
	}
	if c.Region <= 0 {
		c.Region = 200
	}
}

// ShapeFamily identifies the generator family of one cluster.
type ShapeFamily int

// The shape families: compact blobs, elongated streaks, rings (clusters
// with a hole — the structure CRD cannot see), multi-lobe clusters
// (two dense lobes connected by a thin bridge — connectivity structure),
// and L-bends.
const (
	ShapeBlob ShapeFamily = iota
	ShapeElongated
	ShapeRing
	ShapeTwoLobe
	ShapeBend
	numShapes
)

// String implements fmt.Stringer.
func (s ShapeFamily) String() string {
	switch s {
	case ShapeBlob:
		return "blob"
	case ShapeElongated:
		return "elongated"
	case ShapeRing:
		return "ring"
	case ShapeTwoLobe:
		return "two-lobe"
	case ShapeBend:
		return "bend"
	default:
		return "unknown"
	}
}

// GeneratedCluster is one synthetic cluster with its provenance.
type GeneratedCluster struct {
	Points []geom.Point
	Shape  ShapeFamily
}

// Clusters generates n independent cluster-shaped point sets cycling
// through the shape families.
func Clusters(cfg ClustersConfig, n int) []GeneratedCluster {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]GeneratedCluster, n)
	for i := range out {
		shape := ShapeFamily(i % int(numShapes))
		out[i] = GeneratedCluster{
			Shape:  shape,
			Points: oneCluster(rng, cfg, shape),
		}
	}
	return out
}

// Perturb returns a jittered, translated copy of a cluster — the "newly
// detected cluster resembling an archived one" used as a to-be-matched
// target in the quality study. jitter is per-coordinate noise; shift is
// the translation magnitude.
func Perturb(c GeneratedCluster, jitter, shift float64, seed int64) GeneratedCluster {
	rng := rand.New(rand.NewSource(seed))
	dim := len(c.Points[0])
	delta := make(geom.Point, dim)
	for d := range delta {
		delta[d] = (float64(rng.Float64())*2 - 1) * shift
	}
	pts := make([]geom.Point, 0, len(c.Points))
	for _, p := range c.Points {
		// Drop ~5% of members and jitter the rest.
		if rng.Float64() < 0.05 {
			continue
		}
		q := p.Add(delta)
		for d := range q {
			q[d] += float64(rng.NormFloat64() * jitter)
		}
		pts = append(pts, q)
	}
	return GeneratedCluster{Points: pts, Shape: c.Shape}
}

func oneCluster(rng *rand.Rand, cfg ClustersConfig, shape ShapeFamily) []geom.Point {
	n := cfg.MinPoints + rng.Intn(cfg.MaxPoints-cfg.MinPoints)
	center := make(geom.Point, cfg.Dim)
	for d := range center {
		center[d] = rng.Float64() * cfg.Region
	}
	pts := make([]geom.Point, 0, n)
	emit := func(x, y float64) {
		p := make(geom.Point, cfg.Dim)
		p[0] = center[0] + float64(x)
		p[1] = center[1] + float64(y)
		for d := 2; d < cfg.Dim; d++ {
			p[d] = center[d] + float64(rng.NormFloat64()*0.5)
		}
		pts = append(pts, p)
	}
	switch shape {
	case ShapeBlob:
		sx := 0.8 + float64(rng.Float64()*1.5)
		sy := 0.8 + float64(rng.Float64()*1.5)
		for i := 0; i < n; i++ {
			emit(rng.NormFloat64()*sx, rng.NormFloat64()*sy)
		}
	case ShapeElongated:
		length := 6 + float64(rng.Float64()*8)
		width := 0.3 + float64(rng.Float64()*0.5)
		angle := rng.Float64() * math.Pi
		cos, sin := math.Cos(angle), math.Sin(angle)
		for i := 0; i < n; i++ {
			u := (float64(rng.Float64()) - 0.5) * length
			v := rng.NormFloat64() * width
			emit(float64(u*cos)-float64(v*sin), float64(u*sin)+float64(v*cos))
		}
	case ShapeRing:
		// Radius bounded so the ring's linear density stays above the
		// clustering threshold even for the smallest point counts.
		r := 1.8 + float64(rng.Float64()*1.2)
		width := 0.25 + float64(rng.Float64()*0.3)
		for i := 0; i < n; i++ {
			a := float64(rng.Float64()) * 2 * math.Pi
			rr := r + float64(rng.NormFloat64()*width)
			emit(rr*math.Cos(a), rr*math.Sin(a))
		}
	case ShapeTwoLobe:
		sep := 4 + float64(rng.Float64()*3)
		s1 := 0.8 + float64(rng.Float64())
		s2 := 0.8 + float64(rng.Float64())
		for i := 0; i < n; i++ {
			switch {
			case i%10 == 0: // thin bridge
				emit((float64(rng.Float64())-0.5)*sep, rng.NormFloat64()*0.25)
			case i%2 == 0:
				emit(float64(-sep/2)+float64(rng.NormFloat64()*s1), rng.NormFloat64()*s1)
			default:
				emit(float64(sep/2)+float64(rng.NormFloat64()*s2), rng.NormFloat64()*s2)
			}
		}
	case ShapeBend:
		arm := 4 + float64(rng.Float64()*4)
		width := 0.4 + float64(rng.Float64()*0.4)
		for i := 0; i < n; i++ {
			u := rng.Float64() * arm
			v := rng.NormFloat64() * width
			if i%2 == 0 {
				emit(u, v)
			} else {
				emit(v, u)
			}
		}
	}
	return pts
}
