package datacenter

// The paper's request workloads: single-file micro traces (§5.1, one
// file requested repeatedly) and Zipf-distributed document traces
// (§5.1, Breslau et al.) over a generated file catalog, and the
// HTTP-like messages that carry them. The tiers pass requests and
// responses as msg envelope metadata; no header text is parsed.

import (
	"fmt"

	"ioatsim/internal/host"
	"ioatsim/internal/ramfs"
	"ioatsim/internal/rng"
)

// requestBytes is the on-wire size of a GET request (method + path +
// headers), beyond the framing header.
const requestBytes = 200

// request is a static-content GET.
type request struct {
	path string
}

// response marks a served document. It carries nothing, so boxing it
// as envelope metadata does not allocate.
type response struct{}

// trace yields the sequence of document names a client requests.
type trace interface {
	next() string
}

// singleFile is the §5.2.1 micro workload: every request hits one file.
type singleFile struct {
	path string
}

func (s *singleFile) next() string { return s.path }

// zipfTrace is the §5.2.2 workload: document i is requested with
// probability proportional to 1/i^alpha over a fixed catalog.
type zipfTrace struct {
	names []string
	z     *rng.Zipf
}

// newZipfTrace builds a Zipf trace over the catalog with the given
// exponent. Catalog order defines popularity rank: names[0] is the most
// popular.
func newZipfTrace(r *rng.Rand, names []string, alpha float64) *zipfTrace {
	if len(names) == 0 {
		panic("datacenter: empty catalog")
	}
	return &zipfTrace{names: names, z: rng.NewZipf(r, len(names), alpha)}
}

func (z *zipfTrace) next() string { return z.names[z.z.Next()] }

// buildCatalog generates the web tier's content and returns the
// document names: fixed-size documents, or a uniform size spread when
// configured.
func buildCatalog(cl *host.Cluster, web *Tier, o Options) []string {
	if o.SpreadMax > 0 {
		return generateDocs(web.FS, cl.Rand.Fork(), o.FileCount, o.SpreadMin, o.SpreadMax)
	}
	return generateDocs(web.FS, nil, o.FileCount, o.FileSize, o.FileSize)
}

// newTrace builds a per-thread request trace.
func newTrace(cl *host.Cluster, names []string, o Options) trace {
	if o.Alpha > 0 {
		return newZipfTrace(cl.Rand.Fork(), names, o.Alpha)
	}
	return &singleFile{path: names[0]}
}

// generateDocs creates count files in fs, named docNNNN.html, and
// returns their names. Sizes vary uniformly in [minSize, maxSize],
// mimicking a static-content document mix; r draws them, and may be nil
// when the two are equal.
func generateDocs(fs *ramfs.FS, r *rng.Rand, count, minSize, maxSize int) []string {
	if maxSize < minSize {
		panic("datacenter: maxSize below minSize")
	}
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("doc%04d.html", i)
		size := minSize
		if maxSize > minSize {
			size += r.Intn(maxSize - minSize + 1)
		}
		fs.Create(name, size)
		names = append(names, name)
	}
	return names
}
