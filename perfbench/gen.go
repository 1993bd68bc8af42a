package main

import (
	"encoding/hex"
	"image"
	"math"
	"math/rand"
	"sort"
	"strings"

	"viewmap/internal/attack"
	"viewmap/internal/blur"
	"viewmap/internal/core"
	"viewmap/internal/geo"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// Input generation. Everything here is a pure function of the seed
// and runs before any timing starts.

// batchSize is the number of wire records per upload request.
const batchSize = 64

// mix derives an independent seed for one generated item.
func mix(seed int64, parts ...int64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// areaFor returns the square that holds n VPs per minute at the link
// density of 200 VPs over 2x2 km.
func areaFor(n int) geo.Rect {
	side := 2000 * math.Sqrt(float64(n)/200)
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
}

// minuteData is one simulated minute of fleet traffic.
type minuteData struct {
	minute  int64
	trusted []byte    // the police car's VP, uploaded on the trusted path
	records [][]byte  // anonymous wire records in upload order
	ids     []vd.VPID // every identifier, trusted first
	// profiles holds the minute as the server will decode it (trusted
	// first), kept only for minutes an offline reference is built for.
	profiles []*vp.Profile
}

// genMinute synthesizes n honestly linked VPs for minute m, one of
// them trusted (the one nearest the area centre). extra profiles
// (evidence owners) join the population before linking.
func genMinute(seed, m int64, n int, area geo.Rect, extra []*vp.Profile, keep bool) (*minuteData, []*vp.Profile, error) {
	rng := rand.New(rand.NewSource(mix(seed, 1, m)))
	ps := make([]*vp.Profile, 0, n+len(extra))
	for i := 0; i < n; i++ {
		p, err := core.FabricateProfile(core.RandomTrack(area, 14, rng), m, 0, rng)
		if err != nil {
			return nil, nil, err
		}
		ps = append(ps, p)
	}
	ps = append(ps, extra...)
	if err := link(ps, core.DefaultDSRCRange); err != nil {
		return nil, nil, err
	}
	ti := core.MarkTrustedNearest(ps[:n], area.Center())
	md := &minuteData{minute: m, trusted: ps[ti].Marshal(), ids: []vd.VPID{ps[ti].ID()}}
	for i, p := range ps {
		if i != ti {
			md.records = append(md.records, p.Marshal())
			md.ids = append(md.ids, p.ID())
		}
	}
	if keep {
		md.profiles = decodeMinute(md)
	}
	return md, ps, nil
}

// link is core.LinkByProximity's honest linkage pass (every pair whose
// tracks come within rangeM at an aligned second is mutually linked)
// with a bounding-box pre-filter in place of its pair map, which
// dominated input generation at 1,000 VPs per minute.
func link(ps []*vp.Profile, rangeM float64) error {
	type box struct{ minX, minY, maxX, maxY float64 }
	boxes := make([]box, len(ps))
	for i, p := range ps {
		b := box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
		for _, v := range p.VDs {
			b.minX, b.maxX = math.Min(b.minX, v.L.X), math.Max(b.maxX, v.L.X)
			b.minY, b.maxY = math.Min(b.minY, v.L.Y), math.Max(b.maxY, v.L.Y)
		}
		boxes[i] = b
	}
	r2 := rangeM * rangeM
	for i, a := range ps {
		ba := boxes[i]
		for j := i + 1; j < len(ps); j++ {
			bb := boxes[j]
			if bb.minX > ba.maxX+rangeM || ba.minX > bb.maxX+rangeM ||
				bb.minY > ba.maxY+rangeM || ba.minY > bb.maxY+rangeM {
				continue
			}
			b := ps[j]
			for s := 0; s < min(len(a.VDs), len(b.VDs)); s++ {
				if a.VDs[s].L.Dist2(b.VDs[s].L) <= r2 {
					if err := vp.LinkMutually(a, b); err != nil {
						return err
					}
					break
				}
			}
		}
	}
	return nil
}

// decodeMinute re-decodes a minute's wire records, as the server
// stores them: reference builds must see exactly the uploaded bytes.
func decodeMinute(md *minuteData) []*vp.Profile {
	out := make([]*vp.Profile, 0, len(md.records)+1)
	t, err := vp.Unmarshal(md.trusted)
	if err != nil {
		panic(err) // our own Marshal output always decodes
	}
	t.Trusted = true
	out = append(out, t)
	return append(out, decodeAll(md.records)...)
}

// decodeAll decodes wire records the benchmark marshalled itself.
func decodeAll(recs [][]byte) []*vp.Profile {
	out := make([]*vp.Profile, len(recs))
	for i, r := range recs {
		p, err := vp.Unmarshal(r)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// batches frames records into upload bodies of batchSize records.
func batches(recs [][]byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(recs); off += batchSize {
		out = append(out, vp.MarshalRawBatch(recs[off:min(off+batchSize, len(recs))]))
	}
	return out
}

// reference is an offline verdict: the sorted legitimate identifiers
// of core.Build plus VerifySite over a minute's decoded profiles.
func reference(profiles []*vp.Profile, site geo.Rect, minute int64) (string, *core.Viewmap, error) {
	vm, err := core.Build(profiles, core.BuildConfig{Site: site, Minute: minute, RequirePlausible: true})
	if err != nil {
		return "", nil, err
	}
	v, err := vm.VerifySite(vm.InSite(site), core.TrustRankConfig{})
	if err != nil {
		return "", nil, err
	}
	return idSetKey(v.LegitimateIDs(vm)), vm, nil
}

// minMargin is the clearance every trajectory sample must keep from a
// reference site's border and from its coverage border, so that
// nudged sites (shifted by at most ~3e-6 m) select the same members.
const minMargin = 1e-5

// borderMargin returns the smallest distance from any sample of ps to
// the border of site or of cover.
func borderMargin(ps []*vp.Profile, site, cover geo.Rect) float64 {
	best := math.Inf(1)
	for _, p := range ps {
		for i := range p.VDs {
			l := p.VDs[i].L
			best = math.Min(best, math.Min(rectBorderDist(site, l), rectBorderDist(cover, l)))
		}
	}
	return best
}

func rectBorderDist(r geo.Rect, p geo.Point) float64 {
	dx := math.Max(math.Max(r.Min.X-p.X, p.X-r.Max.X), 0)
	dy := math.Max(math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y), 0)
	if dx > 0 || dy > 0 {
		return math.Hypot(dx, dy)
	}
	return math.Min(math.Min(p.X-r.Min.X, r.Max.X-p.X), math.Min(p.Y-r.Min.Y, r.Max.Y-p.Y))
}

// randomSite returns a site of the given half-width centred at a
// seeded point inside area (kept clear of the border).
func randomSite(rng *rand.Rand, area geo.Rect, half float64) geo.Rect {
	c := geo.Pt(
		area.Min.X+half+rng.Float64()*(area.Width()-2*half),
		area.Min.Y+half+rng.Float64()*(area.Height()-2*half),
	)
	return geo.RectAround(c, half)
}

// nudge shifts a reference site by a unique offset of (k+1)*1e-11 m,
// so every request names a site the server has never been asked
// about (fresh extraction, no verdict-cache hit). Its answer stays the
// reference's as long as the shift stays below the reference's border
// margin (see borderMargin); plan keeps k below 2^18.
func nudge(site geo.Rect, k int) geo.Rect {
	d := float64(k+1) * 1e-11
	return geo.NewRect(geo.Pt(site.Min.X+d, site.Min.Y+d), geo.Pt(site.Max.X+d, site.Max.Y+d))
}

// owner is one video owner an evidence solicitation reaches.
type owner struct {
	id     vd.VPID
	q      vd.Secret
	chunks [][]byte
}

// Evidence frames use the evidence service's default geometry, with
// one plate per frame for the redaction stage to find.
const frameW, frameH = 160, 90

var plate = image.Rect(55, 40, 105, 56)

// genOwners records one minute for a convoy of n camera vehicles on a
// short lane starting at p, the way client.Vehicle records it but
// with seeded ownership secrets: the VP builder hashes each second of
// camera frames into the VD cascade and hears the other vehicles'
// VDs. It returns their VPs and each owner's deliverable video.
func genOwners(seed, m int64, n int, p geo.Point) ([]*vp.Profile, []owner, error) {
	rng := rand.New(rand.NewSource(mix(seed, 2, m)))
	start := m * vd.SegmentSeconds
	builders := make([]*vp.Builder, n)
	cams := make([]*blur.CameraSource, n)
	owners := make([]owner, n)
	for i := range builders {
		var q vd.Secret
		rng.Read(q[:])
		bl, err := vp.NewBuilder(vd.DeriveVPID(q), start, 0, core.DefaultDSRCRange)
		if err != nil {
			return nil, nil, err
		}
		builders[i] = bl
		cams[i] = &blur.CameraSource{W: frameW, H: frameH, Seed: rng.Uint64(), Plates: []blur.Plate{{Rect: plate}}}
		owners[i] = owner{id: vd.DeriveVPID(q), q: q}
	}
	for s := 1; s <= vd.SegmentSeconds; s++ {
		vds := make([]vd.VD, n)
		for i, bl := range builders {
			chunk := cams[i].SecondChunk(start, s)
			owners[i].chunks = append(owners[i].chunks, chunk)
			d, err := bl.RecordSecond(geo.Pt(p.X+float64(s)*5+float64(i)*30, p.Y), chunk)
			if err != nil {
				return nil, nil, err
			}
			vds[i] = d
		}
		for i, bl := range builders {
			for j, d := range vds {
				if i != j {
					if err := bl.AcceptNeighborVD(d, start+int64(s)); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	ps := make([]*vp.Profile, n)
	for i, bl := range builders {
		pr, err := bl.Finalize()
		if err != nil {
			return nil, nil, err
		}
		ps[i] = pr
	}
	return ps, owners, nil
}

// incident is one authority case: a minute with a convoy of video
// owners, the site around them, flood waves an attacker lands after
// the first investigation, and the offline verdict after each wave.
type incident struct {
	minute int64
	md     *minuteData
	site   geo.Rect
	owners []owner
	waves  [][]byte // one upload body per wave
	// refs[w] is the reference legitimate set after w waves landed.
	refs []string
	// listed is the number of identifiers the solicitation must list:
	// the legitimate set after the last wave.
	listed int
}

// genIncident builds incident data for minute m over a population of
// n VPs in area, with the given number of waves of fakes.
func genIncident(seed, m int64, n int, area geo.Rect, owners, waves, fakes int) (*incident, error) {
	rng := rand.New(rand.NewSource(mix(seed, 4, m)))
	lane := randomSite(rng, area, 400).Center()
	ops, own, err := genOwners(seed, m, owners, lane)
	if err != nil {
		return nil, err
	}
	md, ps, err := genMinute(seed, m, n, area, ops, false)
	if err != nil {
		return nil, err
	}
	inc := &incident{
		minute: m, md: md, owners: own,
		site: geo.NewRect(geo.Pt(lane.X-40, lane.Y-60), geo.Pt(lane.X+400, lane.Y+60)),
	}
	current := decodeMinute(md)
	ref, _, err := reference(current, inc.site, m)
	if err != nil {
		return nil, err
	}
	inc.refs = append(inc.refs, ref)
	// The attacker owns the honest VP nearest the site.
	var anchor *vp.Profile
	best := math.Inf(1)
	for _, p := range ps[:n] {
		if d := p.InitialLocation().Dist(inc.site.Center()); d < best && !p.Trusted {
			best, anchor = d, p
		}
	}
	for w := 0; w < waves; w++ {
		camp, err := attack.Launch([]*vp.Profile{anchor}, attack.Config{
			Site: inc.site, FakeCount: fakes, Colluding: true, Minute: m, Seed: mix(seed, 5, m, int64(w)),
		})
		if err != nil {
			return nil, err
		}
		recs := make([][]byte, len(camp.Fakes))
		for i, f := range camp.Fakes {
			recs[i] = f.Marshal()
		}
		inc.waves = append(inc.waves, vp.MarshalRawBatch(recs))
		current = append(current, decodeAll(recs)...)
		ref, _, err := reference(current, inc.site, m)
		if err != nil {
			return nil, err
		}
		inc.refs = append(inc.refs, ref)
	}
	inc.listed = len(splitKey(inc.refs[len(inc.refs)-1]))
	return inc, nil
}

// idSetKey canonicalizes a set of identifiers (sorted hex, comma
// separated) so served and reference sets compare as strings.
func idSetKey(ids []vd.VPID) string {
	hs := make([]string, len(ids))
	for i, id := range ids {
		hs[i] = hex.EncodeToString(id[:])
	}
	return hexSetKey(hs)
}

func hexSetKey(hs []string) string {
	s := append([]string(nil), hs...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

func splitKey(k string) []string {
	if k == "" {
		return nil
	}
	return strings.Split(k, ",")
}
