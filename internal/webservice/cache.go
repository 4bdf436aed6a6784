package webservice

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"github.com/hpc-repro/aiio/internal/core"
	"github.com/hpc-repro/aiio/internal/darshan"
)

// DefaultCacheSize bounds the diagnosis result cache when Server.CacheSize
// is 0. One entry retains a full five-model Diagnosis (≈ 3.5 KB) and, once
// the job has been asked for again, its rendered response (≈ 2.8 KB more);
// the default keeps the cache under 7 MB.
const DefaultCacheSize = 1024

// diagCache is a bounded LRU of finished diagnoses with two tiers.
//
// The first tier — the multi-second SHAP work of POST /api/v1/diagnose — is
// keyed by everything a diagnosis depends on: the model-set version (bumped
// on every model upload, so stale ensembles can never serve) and the job's
// full identity (application, performance tag, all 45 counters). The key
// embeds the exact float bits rather than a hash, so two distinct jobs can
// never collide; repeat queries for the same job are O(1).
//
// The second tier answers a repeat from its request bytes. The second time a
// cached job is asked for, its entry is frozen: it keeps the encoded response
// (everything but the per-request advisories) and is indexed by the SHA-256
// of the body that asked. From then on the same bytes are answered without
// parsing them. A job nobody asks about twice never pays for rendered bytes,
// and the index holds a 32-byte digest, not the body, so a padded 16 MB
// request costs the cache no more than a 1 KB one.
//
// Cached *core.Diagnosis values and rendered bytes are shared across requests
// and must be treated as immutable by every reader.
type diagCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	// digests indexes frozen entries by request-body digest. Every value is
	// an element of ll whose entry carries that digest, so the index can
	// never outlive (or outnumber) the entries.
	digests map[bodyDigest]*list.Element

	hits, misses uint64
}

// bodyDigest is the SHA-256 of a diagnose request body.
type bodyDigest = [sha256.Size]byte

type cacheEntry struct {
	key  string
	diag *core.Diagnosis
	// rendered is the frozen response up to the advisories field; nil until
	// the entry's second touch. While it is set, digest is the entry's slot
	// in the digest index and version the model-set version it was rendered
	// under (the key's prefix — the digest tier has no key to carry it).
	rendered []byte
	digest   bodyDigest
	version  uint64
}

func newDiagCache(capacity int) *diagCache {
	return &diagCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
		digests: make(map[bodyDigest]*list.Element),
	}
}

// lookup returns the cached diagnosis for key and the entry's rendered
// response (nil while the entry is not frozen), marks it most recently used,
// and counts the hit or miss.
func (c *diagCache) lookup(key string) (d *core.Diagnosis, rendered []byte, ok bool) {
	return c.find(key, true)
}

// peek is lookup without the hit/miss accounting, for a second lookup on
// behalf of a request that has already been counted.
func (c *diagCache) peek(key string) (*core.Diagnosis, bool) {
	d, _, ok := c.find(key, false)
	return d, ok
}

func (c *diagCache) find(key string, counted bool) (d *core.Diagnosis, rendered []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if counted {
		if ok {
			c.hits++
		} else {
			c.misses++
		}
	}
	if !ok {
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.diag, e.rendered, true
}

// byDigest returns the frozen response for a request body with this digest,
// if one was rendered under this model-set version, and counts the hit. A
// miss is not counted: the request goes on to the keyed lookup, which
// counts it once.
func (c *diagCache) byDigest(digest bodyDigest, version uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.digests[digest]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != version {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.rendered, true
}

// freeze attaches a response rendered under the given model-set version to
// key's entry and indexes it by the digest of the body that asked. It is a
// no-op when the entry is gone (evicted or purged since the lookup) or
// already frozen.
func (c *diagCache) freeze(key string, version uint64, digest bodyDigest, rendered []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.rendered != nil {
		return
	}
	// The same bytes can be indexed under a superseded version by a request
	// that was in flight across an upload; the newer entry takes the slot.
	if old, ok := c.digests[digest]; ok {
		old.Value.(*cacheEntry).rendered = nil
	}
	e.rendered, e.digest, e.version = rendered, digest, version
	c.digests[digest] = el
}

// put inserts a diagnosis, evicting the least recently used entry past the
// capacity bound.
func (c *diagCache) put(key string, d *core.Diagnosis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.diag = d
		c.thaw(e)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, diag: d})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		e := c.ll.Remove(oldest).(*cacheEntry)
		delete(c.entries, e.key)
		c.thaw(e)
	}
}

// thaw drops e's rendered response and its digest index slot. Callers hold
// c.mu.
func (c *diagCache) thaw(e *cacheEntry) {
	if e.rendered == nil {
		return
	}
	delete(c.digests, e.digest)
	e.rendered = nil
}

// purge drops every entry (model upload invalidation); the hit/miss
// counters survive for observability.
func (c *diagCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element, c.cap)
	c.digests = make(map[bodyDigest]*list.Element)
}

// stats reports the counters and current size.
func (c *diagCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// cacheKey serializes (model-set version, job identity) into a map key. The
// version prefix makes every pre-upload entry unreachable even before the
// purge lands.
func cacheKey(version uint64, rec *darshan.Record) string {
	buf := make([]byte, 0, 8+len(rec.App)+1+8*(int(darshan.NumCounters)+1))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], version)
	buf = append(buf, b[:]...)
	buf = append(buf, rec.App...)
	buf = append(buf, 0) // terminator: app names cannot forge counter bytes
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(rec.PerfMiBps))
	buf = append(buf, b[:]...)
	for _, c := range rec.Counters {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c))
		buf = append(buf, b[:]...)
	}
	return string(buf)
}
