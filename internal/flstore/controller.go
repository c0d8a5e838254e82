package flstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Controller is the stateless control and meta-data oracle of §5.1:
// application clients poll it at session start for the addresses of the
// indexers and log maintainers, the placement parameters, and the epoch
// journal used to locate records written under older placements (§6.3).
//
// "Stateless" in the paper's sense means it holds no log data and can be
// replicated freely; here it is a small in-memory registry guarded by a
// lock, which any number of replicas could serve.
type Controller struct {
	mu  sync.RWMutex
	cfg Config
}

// NewController returns a controller serving the given configuration. The
// configuration's epoch journal is normalized: if empty, a single epoch
// starting at LId 1 with cfg.Placement is installed.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Placement.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Epochs) == 0 {
		cfg.Epochs = []Epoch{{FirstLId: 1, Placement: cfg.Placement}}
	}
	if cfg.Epochs[0].FirstLId != 1 {
		return nil, errors.New("flstore: first epoch must start at LId 1")
	}
	for i := 1; i < len(cfg.Epochs); i++ {
		if cfg.Epochs[i].FirstLId <= cfg.Epochs[i-1].FirstLId {
			return nil, errors.New("flstore: epoch journal not strictly increasing")
		}
	}
	return &Controller{cfg: cfg}, nil
}

// GetConfig implements ControllerAPI.
func (c *Controller) GetConfig() (*Config, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cfg := c.cfg
	cfg.MaintainerAddrs = append([]string(nil), c.cfg.MaintainerAddrs...)
	cfg.IndexerAddrs = append([]string(nil), c.cfg.IndexerAddrs...)
	cfg.Epochs = append([]Epoch(nil), c.cfg.Epochs...)
	for i := range cfg.Epochs {
		cfg.Epochs[i].MaintainerAddrs = append([]string(nil), cfg.Epochs[i].MaintainerAddrs...)
	}
	return &cfg, nil
}

// AnnounceEpochTopology appends a future-reassignment epoch (§6.3): from
// firstLId onward the log uses the new placement, served by the given
// maintainer endpoints (index-aligned with the placement; nil for
// in-process deployments whose members are wired directly). firstLId must
// exceed every existing epoch boundary — the "future mark" that gives
// batchers, queues and readers time to learn the hand-over before it
// takes effect. When addrs is non-nil the epoch journal becomes the
// topology of record: the previous epoch is stamped with the addresses it
// was serving under, so clients joining later can still reach old-epoch
// records, and the top-level address list moves to the new set.
func (c *Controller) AnnounceEpochTopology(firstLId uint64, p Placement, addrs []string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(addrs) != 0 && len(addrs) != p.NumMaintainers {
		return fmt.Errorf("flstore: epoch topology has %d addrs for %d maintainers", len(addrs), p.NumMaintainers)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	last := &c.cfg.Epochs[len(c.cfg.Epochs)-1]
	if firstLId <= last.FirstLId {
		return fmt.Errorf("flstore: epoch boundary %d not after current %d", firstLId, last.FirstLId)
	}
	if len(addrs) != 0 {
		if len(last.MaintainerAddrs) == 0 {
			last.MaintainerAddrs = append([]string(nil), c.cfg.MaintainerAddrs...)
		}
		c.cfg.MaintainerAddrs = append([]string(nil), addrs...)
	}
	c.cfg.Epochs = append(c.cfg.Epochs, Epoch{
		FirstLId:        firstLId,
		Placement:       p,
		MaintainerAddrs: append([]string(nil), addrs...),
	})
	c.cfg.Placement = p
	return nil
}

// PlacementAt returns the placement in force at the given LId according to
// an epoch journal. Readers use this to locate records written before a
// reassignment (the paper's "epoch journal" alternative to migrating old
// records, §6.3).
func PlacementAt(epochs []Epoch, lid uint64) (Placement, error) {
	if len(epochs) == 0 {
		return Placement{}, errors.New("flstore: empty epoch journal")
	}
	// Find the last epoch with FirstLId <= lid.
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i].FirstLId > lid })
	if i == 0 {
		return Placement{}, fmt.Errorf("flstore: LId %d precedes first epoch", lid)
	}
	return epochs[i-1].Placement, nil
}
