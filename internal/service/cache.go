package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

var (
	ctrCacheHitsMem     = telemetry.NewCounter("service.cache_hits_mem")
	ctrCacheHitsDisk    = telemetry.NewCounter("service.cache_hits_disk")
	ctrCacheMisses      = telemetry.NewCounter("service.cache_misses")
	ctrCacheEvicted     = telemetry.NewCounter("service.cache_evictions")
	ctrCacheDiskEvicted = telemetry.NewCounter("service.cache_disk_evictions")
)

// cache is the content-addressed result store: an in-memory LRU of bounded
// entry count fronting an optional on-disk store that survives restarts.
// Because a Result is a pure function of its Request key, entries never
// expire — an eviction only trades memory for a disk re-read. The disk tier
// is bounded too (diskEntries files, oldest-modified pruned first; a hit
// refreshes its file's mtime), so a stream of distinct requests cannot grow
// the cache directory without limit.
type cache struct {
	mu      sync.Mutex
	entries int
	order   *list.List               // front = most recently used
	byKey   map[string]*list.Element // value: *cacheEntry

	dir         string // "" disables the disk tier
	diskMu      sync.Mutex
	diskEntries int
}

type cacheEntry struct {
	key string
	res *Result
}

func newCache(entries int, dir string, diskEntries int) (*cache, error) {
	if entries < 1 {
		entries = 1
	}
	if diskEntries < 1 {
		diskEntries = 1
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &cache{entries: entries, order: list.New(),
		byKey: make(map[string]*list.Element), dir: dir, diskEntries: diskEntries}, nil
}

// get returns the cached result for key and which tier served it ("mem" or
// "disk"), or nil on a miss. A disk hit is promoted into the memory tier.
func (c *cache) get(key string) (*Result, string) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		ctrCacheHitsMem.Inc()
		return res, "mem"
	}
	c.mu.Unlock()

	if c.dir != "" {
		data, err := os.ReadFile(c.diskPath(key))
		if err == nil {
			var res Result
			if json.Unmarshal(data, &res) == nil && res.Key == key {
				// Refresh the file's mtime so disk pruning approximates LRU
				// rather than FIFO; best-effort, a failure just ages the entry.
				now := time.Now()
				_ = os.Chtimes(c.diskPath(key), now, now)
				c.putMem(key, &res)
				ctrCacheHitsDisk.Inc()
				return &res, "disk"
			}
		}
	}
	ctrCacheMisses.Inc()
	return nil, ""
}

// put stores res in both tiers. The disk write is atomic (tmp + rename) so a
// crash mid-write can never leave a half-serialized artifact to be served.
func (c *cache) put(key string, res *Result) error {
	c.putMem(key, res)
	if c.dir == "" {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("service: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("service: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.diskPath(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: cache write: %w", err)
	}
	c.pruneDisk()
	return nil
}

// pruneDisk bounds the on-disk tier: when the directory holds more than
// diskEntries cached results, the oldest-modified ones are removed first.
// Best-effort throughout — pruning competes with concurrent puts and external
// cleanup, and losing a cache file only costs a future recompute.
func (c *cache) pruneDisk() {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var files []aged
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue // leave in-flight put-*.tmp files alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime()})
	}
	if len(files) <= c.diskEntries {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files[:len(files)-c.diskEntries] {
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			ctrCacheDiskEvicted.Inc()
		}
	}
}

func (c *cache) putMem(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.entries {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
		ctrCacheEvicted.Inc()
	}
}

func (c *cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}
