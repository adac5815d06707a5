// Package gen synthesizes the two streaming workloads of the paper's
// evaluation (§8), which use data we cannot redistribute:
//
//   - GMTI: the Ground Moving Target Indicator feed from JointSTARS [6] —
//     ~100K records of vehicles and helicopters (0-200 mph) observed by 24
//     ground stations over a geographic region. Replaced by a moving-object
//     simulator whose convoys produce arbitrarily shaped, drifting,
//     merging and splitting density clusters.
//
//   - STT: the INET Stock Trade Traces [11] — 1M transaction records over
//     a trading day, clustered on (transaction type, price, volume, time).
//     Replaced by a bursty trade simulator in which "intensive-transaction
//     areas" (price/time-local bursts per symbol) form density clusters.
//
// Both generators are deterministic given a seed, and both implement the
// paper's data-scaling protocol: "for experiments that involve data sets
// larger than these two datasets, we append multiple rounds of the
// original data varied by setting random differences on all attributes"
// (Extend).
//
// A seed yields the same points on every GOARCH: each product that feeds
// a sum is rounded on its own with float64(…), so arm64 cannot fuse the
// two into one multiply-add. That includes a bare rng.Float64(), whose
// inlined body ends in a multiply by 2^-63.
package gen

import (
	"math"
	"math/rand"

	"streamsum/internal/geom"
)

// Batch is a generated stream prefix: points with timestamps (ticks).
type Batch struct {
	Points []geom.Point
	TS     []int64
}

// Append concatenates another batch (timestamps are shifted to continue
// monotonically).
func (b *Batch) Append(o Batch) {
	var shift int64
	if len(b.TS) > 0 && len(o.TS) > 0 {
		shift = b.TS[len(b.TS)-1] + 1 - o.TS[0]
	}
	b.Points = append(b.Points, o.Points...)
	for _, ts := range o.TS {
		b.TS = append(b.TS, ts+shift)
	}
}

// Extend implements the paper's scaling trick: the batch is grown to
// target tuples by appending perturbed copies of itself, each attribute
// varied by a random difference up to jitter (absolute units).
func Extend(b Batch, target int, jitter float64, seed int64) Batch {
	if len(b.Points) == 0 || target <= len(b.Points) {
		return b
	}
	rng := rand.New(rand.NewSource(seed))
	out := Batch{
		Points: append([]geom.Point(nil), b.Points...),
		TS:     append([]int64(nil), b.TS...),
	}
	n := len(b.Points)
	span := b.TS[n-1] - b.TS[0] + 1
	round := int64(1)
	for len(out.Points) < target {
		for i := 0; i < n && len(out.Points) < target; i++ {
			p := b.Points[i].Clone()
			for d := range p {
				p[d] += float64((float64(rng.Float64())*2 - 1) * jitter)
			}
			out.Points = append(out.Points, p)
			out.TS = append(out.TS, b.TS[i]+round*span)
		}
		round++
	}
	return out
}

// --- STT: stock trade traces ------------------------------------------------

// STTConfig parameterizes the synthetic stock-trade stream.
type STTConfig struct {
	// Symbols is the number of traded stocks (default 40).
	Symbols int
	// BurstProb is the per-tick probability that a symbol enters an
	// intensive-trading regime (default 0.01).
	BurstProb float64
	// BurstLen is the expected burst length in trades (default 120).
	BurstLen int
	// Seed makes the stream reproducible.
	Seed int64
}

func (c *STTConfig) defaults() {
	if c.Symbols <= 0 {
		c.Symbols = 40
	}
	if c.BurstProb <= 0 {
		c.BurstProb = 0.01
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 120
	}
}

// STT generates n trade records as 4-dimensional points
// (type, price, volume, time):
//
//	type   — 0.0 buy / 1.0 sell (a categorical split: trades of opposite
//	         type are never θr-neighbors for the paper's θr settings),
//	price  — normalized log-price in ~[0, 1.5], random-walking per symbol,
//	volume — normalized trade size in [0, 1],
//	time   — the trade's tick scaled by 1/1000 (a 10K-tuple window spans a
//	         few time units, so bursts are time-local dense regions).
//
// Background trades are diffuse; burst-regime trades concentrate in type,
// price and time — these form the "intensive-transaction areas" the
// paper's queries detect.
func STT(cfg STTConfig, n int) Batch {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	type symbol struct {
		price    float64 // normalized log price
		burst    int     // remaining burst trades (0 = quiet)
		burstVol float64
		burstTyp float64
	}
	syms := make([]symbol, cfg.Symbols)
	for i := range syms {
		syms[i].price = rng.Float64() * 1.5
	}

	b := Batch{Points: make([]geom.Point, 0, n), TS: make([]int64, 0, n)}
	tick := int64(0)
	for len(b.Points) < n {
		tick++
		// Symbols drift; bursts start at random.
		for s := range syms {
			syms[s].price += float64(rng.NormFloat64() * 0.0004)
			if syms[s].price < 0 {
				syms[s].price = 0
			}
			if syms[s].burst == 0 && rng.Float64() < cfg.BurstProb {
				syms[s].burst = cfg.BurstLen/2 + rng.Intn(cfg.BurstLen)
				syms[s].burstVol = 0.2 + float64(rng.Float64()*0.6)
				syms[s].burstTyp = float64(rng.Intn(2))
			}
		}
		// Emit trades this tick: every bursting symbol trades heavily,
		// plus sparse background activity.
		for s := range syms {
			sym := &syms[s]
			if sym.burst > 0 {
				trades := 2 + rng.Intn(4)
				for t := 0; t < trades && len(b.Points) < n; t++ {
					sym.burst--
					b.Points = append(b.Points, geom.Point{
						sym.burstTyp,
						sym.price + float64(rng.NormFloat64()*0.004),
						sym.burstVol + float64(rng.NormFloat64()*0.015),
						float64(tick) / 1000,
					})
					b.TS = append(b.TS, tick)
					if sym.burst == 0 {
						break
					}
				}
			} else if rng.Float64() < 0.08 && len(b.Points) < n {
				b.Points = append(b.Points, geom.Point{
					float64(rng.Intn(2)),
					rng.Float64() * 1.5,
					rng.Float64(),
					float64(tick) / 1000,
				})
				b.TS = append(b.TS, tick)
			}
		}
	}
	return b
}

// --- GMTI: ground moving target indicator ------------------------------------

// GMTIConfig parameterizes the synthetic moving-object stream.
type GMTIConfig struct {
	// Stations is the number of observation stations (default 24, as in
	// the JointSTARS deployment the paper's dataset came from).
	Stations int
	// Convoys is the number of coherently moving vehicle groups
	// (default 8).
	Convoys int
	// Dim is 2 for (x, y) or 4 for (x, y, speed, heading). Default 2.
	Dim int
	// Region is the side length of the observed square region in
	// kilometers (default 100).
	Region float64
	// Seed makes the stream reproducible.
	Seed int64
}

func (c *GMTIConfig) defaults() {
	if c.Stations <= 0 {
		c.Stations = 24
	}
	if c.Convoys <= 0 {
		c.Convoys = 8
	}
	if c.Dim != 4 {
		c.Dim = 2
	}
	if c.Region <= 0 {
		c.Region = 100
	}
}

// GMTI generates n position reports. Convoys (vehicle groups) move with
// shared velocity that slowly turns; individual vehicles jitter around the
// convoy center, so the reports of one scan form an arbitrarily shaped
// dense region per convoy — the paper's congestion/troop-movement
// clusters. Some reports are lone vehicles (noise). Speeds range up to
// 200 mph ≈ 0.09 km/tick at one scan per second.
func GMTI(cfg GMTIConfig, n int) Batch {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	type convoy struct {
		x, y    float64
		heading float64
		speed   float64 // km per tick
		size    int
		spread  float64
	}
	convoys := make([]convoy, cfg.Convoys)
	for i := range convoys {
		convoys[i] = convoy{
			x:       rng.Float64() * cfg.Region,
			y:       rng.Float64() * cfg.Region,
			heading: float64(rng.Float64()) * 2 * math.Pi,
			speed:   0.01 + float64(rng.Float64()*0.08),
			size:    6 + rng.Intn(20),
			spread:  0.4 + float64(rng.Float64()*1.2),
		}
	}

	b := Batch{Points: make([]geom.Point, 0, n), TS: make([]int64, 0, n)}
	tick := int64(0)
	for len(b.Points) < n {
		tick++
		for ci := range convoys {
			cv := &convoys[ci]
			cv.heading += float64(rng.NormFloat64() * 0.05)
			cv.x += float64(math.Cos(cv.heading) * cv.speed)
			cv.y += float64(math.Sin(cv.heading) * cv.speed)
			// Bounce off the region boundary.
			if cv.x < 0 || cv.x > cfg.Region {
				cv.heading = math.Pi - cv.heading
				cv.x = math.Min(math.Max(cv.x, 0), cfg.Region)
			}
			if cv.y < 0 || cv.y > cfg.Region {
				cv.heading = -cv.heading
				cv.y = math.Min(math.Max(cv.y, 0), cfg.Region)
			}
			for v := 0; v < cv.size && len(b.Points) < n; v++ {
				px := cv.x + float64(rng.NormFloat64()*cv.spread)
				py := cv.y + float64(rng.NormFloat64()*cv.spread)
				b.Points = append(b.Points, gmtiPoint(cfg, px, py, cv.speed, cv.heading, rng))
				b.TS = append(b.TS, tick)
			}
		}
		// Lone vehicles (noise) from random stations.
		lone := rng.Intn(cfg.Stations / 4)
		for v := 0; v < lone && len(b.Points) < n; v++ {
			b.Points = append(b.Points, gmtiPoint(cfg,
				rng.Float64()*cfg.Region, rng.Float64()*cfg.Region,
				rng.Float64()*0.09, float64(rng.Float64())*2*math.Pi, rng))
			b.TS = append(b.TS, tick)
		}
	}
	return b
}

func gmtiPoint(cfg GMTIConfig, x, y, speed, heading float64, rng *rand.Rand) geom.Point {
	if cfg.Dim == 4 {
		// Speed in mph (0-200), heading scaled to a comparable range.
		return geom.Point{x, y, float64(speed/0.09*200) + float64(rng.NormFloat64()*5), heading * 30}
	}
	return geom.Point{x, y}
}
