// Package runtime is the DVDC protocol's one implementation: node daemons
// that host real VM memories, keep RAID-group parity, and speak the wire
// protocol; and a coordinator that drives two-phase checkpoint rounds,
// failure recovery, rebalances and evacuations across them. The data path is
// core's Member/MKeeper rules, with prepare/commit, parity shipping and
// reconstruction traffic crossing real streams: TCP between processes, or an
// in-memory network inside one (Cluster, NewInProcess). Groups may carry any
// parity tolerance m: each of the m parity blocks lives on its own node, and
// up to m simultaneous node deaths are recoverable.
package runtime

import "encoding/json"

// VMConfig places one VM on a node.
type VMConfig struct {
	Name        string `json:"name"`
	Pages       int    `json:"pages"`
	PageSize    int    `json:"page_size"`
	Group       int    `json:"group"`
	ParityNodes []int  `json:"parity_nodes"` // node of parity block i, i = 0..tolerance-1
	Seed        int64  `json:"seed"`         // workload seed

	// Workload selects the synthetic workload kind driving this VM ("" =
	// uniform). The shadow model mirrors the same kind and seed, so both
	// sides replay identical write streams.
	Workload string `json:"workload,omitempty"`
}

// KeeperConfig makes a node the holder of one parity block of one group.
type KeeperConfig struct {
	Group     int      `json:"group"`
	ParityIdx int      `json:"parity_idx"`
	Tolerance int      `json:"tolerance"`
	Members   []string `json:"members"`
	Pages     int      `json:"pages"`
	PageSize  int      `json:"page_size"`
}

// NodeConfig is the full assignment a node receives at setup.
type NodeConfig struct {
	NodeID  int            `json:"node_id"`
	Peers   map[int]string `json:"peers"` // node id -> address, self included
	VMs     []VMConfig     `json:"vms"`
	Keepers []KeeperConfig `json:"keepers"`

	// ChunkSize is the chunk payload size in bytes; 0 picks
	// wire.DefaultChunkSize. A negative value is rejected.
	ChunkSize int `json:"chunk_size,omitempty"`

	// Dedup makes capture compare every dirty page with the committed image
	// the member already holds and leave out the ones that are byte-identical
	// (their XOR delta is all zeros, so the parity fold they would trigger is a
	// no-op): they are neither captured nor shipped, only counted.
	Dedup bool `json:"dedup,omitempty"`
}

// NodeStats are a node's protocol counters, served via MsgStats: the sum of
// every prepare it ran, failed ones included, and its keepers' chunk counts.
type NodeStats struct {
	ShipCounts
	ChunksReceived int64 `json:"chunks_received"` // delta chunks folded as keeper
	DupChunks      int64 `json:"dup_chunks"`      // idempotently dropped re-deliveries
}

// encodeJSON marshals a config for the wire's Text field.
func encodeJSON(v interface{}) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// decodeJSON unmarshals a config from the wire's Text field.
func decodeJSON(s string, v interface{}) error {
	return json.Unmarshal([]byte(s), v)
}

// rebuildConfig rides MsgReconstruct: elements of one group to rebuild at the
// committed epoch, and where to read them from. Without From the receiving
// node decodes: it pulls k of the group's surviving shards once and computes
// every Lost element from them. With From the one Lost element is read as is
// from that node: a moved VM's current host, or (Held) the decoder that
// computed it for this target.
type rebuildConfig struct {
	Group     int      `json:"group"`
	Members   []string `json:"members"` // every member of the group, any order
	Tolerance int      `json:"tolerance"`
	Pages     int      `json:"pages"`
	PageSize  int      `json:"page_size"`
	Epoch     uint64   `json:"epoch"` // every image read and every element rebuilt is at it

	Survivors   map[string]int `json:"survivors,omitempty"`    // member -> host
	ParityPeers map[int]int    `json:"parity_peers,omitempty"` // parity index -> home (alive)
	From        *int           `json:"from,omitempty"`
	Held        bool           `json:"held,omitempty"`

	Lost []lostElement `json:"lost"`
}

// lostElement is one element a rebuild computes — a member's committed image
// (VM set) or parity block Parity — and the node that is to hold it.
type lostElement struct {
	VM     *VMConfig `json:"vm,omitempty"`
	Parity int       `json:"parity"`
	Target int       `json:"target"`
}

// parityUpdate is one entry of a MsgSetParityBatch (JSON list in Text):
// parity block Idx of group Group now lives on node Node. Batching turns the
// post-recovery pointer refresh from O(groups x parity x nodes) round trips
// into one message per node.
type parityUpdate struct {
	Group int `json:"group"`
	Idx   int `json:"idx"`
	Node  int `json:"node"`
}
