// Package smallbank implements the SmallBank OLTP benchmark (Alomari et
// al., ICDE'08) as the paper runs it (§4.2.1, Figure 16(b)): each account
// has a savings and a checking row, the transaction mix is 85%
// update-heavy, and 60% of transactions touch a 4% hot set of accounts.
package smallbank

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

// The hotspot: hotFraction of accounts receive hotProbability of the
// accesses (paper: 4% of accounts, 60% of transactions).
const (
	hotFraction    = 0.04
	hotProbability = 0.60
)

// Config shapes the benchmark.
type Config struct {
	Accounts       int
	InitialBalance int64
}

// DefaultConfig matches the paper: 1,000,000 accounts per server.
// (Callers typically scale Accounts by the participant count.)
func DefaultConfig() Config {
	return Config{
		Accounts:       1_000_000,
		InitialBalance: 10_000,
	}
}

// TxnType enumerates the six SmallBank transactions.
type TxnType int

// SmallBank transaction types.
const (
	Amalgamate TxnType = iota
	Balance
	DepositChecking
	SendPayment
	TransactSavings
	WriteCheck
	numTypes
)

func (t TxnType) String() string {
	return [...]string{"Amalgamate", "Balance", "DepositChecking", "SendPayment", "TransactSavings", "WriteCheck"}[t]
}

// Mix is the standard distribution: Balance (the only read-only type) 15%,
// updates 85%.
var Mix = [numTypes]int{15, 15, 15, 25, 15, 15}

// keyLen is the length of a row key for accounts below 10^8.
const keyLen = 10

// SavingsKey and CheckingKey name an account's two rows: "sv"/"ck" plus the
// account number zero-padded to eight digits (acct must not be negative).
func SavingsKey(acct int) []byte  { return AppendSavingsKey(make([]byte, 0, keyLen), acct) }
func CheckingKey(acct int) []byte { return AppendCheckingKey(make([]byte, 0, keyLen), acct) }

// AppendSavingsKey and AppendCheckingKey append the row key to buf, for
// callers that build many keys into a buffer of their own.
func AppendSavingsKey(buf []byte, acct int) []byte  { return appendKey(buf, sv, acct) }
func AppendCheckingKey(buf []byte, acct int) []byte { return appendKey(buf, ck, acct) }

// sv and ck prefix an account's savings and checking row keys; rows lists
// them in load order.
const sv, ck = "sv", "ck"

var rows = [2]string{sv, ck}

func appendKey(buf []byte, prefix string, acct int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(acct), 10)
	buf = append(buf, prefix...)
	for i := len(d); i < 8; i++ {
		buf = append(buf, '0')
	}
	return append(buf, d...)
}

// appendMoney appends a balance's row value (8 bytes, little endian).
func appendMoney(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func amount(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// Amount decodes a row value to its balance (for TotalBalanceWith callers).
func Amount(b []byte) int64 { return amount(b) }

// LoadWith inserts all account rows through put — the caller decides
// placement (and replication: a sharded deployment's put writes both the
// primary and the backup replica). key and value are reused from row to
// row: put must copy what it keeps.
func LoadWith(cfg Config, put func(key, value []byte) error) error {
	value := appendMoney(nil, cfg.InitialBalance)
	key := make([]byte, 0, keyLen)
	for a := 0; a < cfg.Accounts; a++ {
		for _, row := range rows {
			if err := put(appendKey(key, row, a), value); err != nil {
				return fmt.Errorf("smallbank: load account %d: %w", a, err)
			}
		}
	}
	return nil
}

// Load inserts all account rows into their owning participants using the
// shared ShardKey placement.
func Load(parts []*txn.Participant, cfg Config) error {
	return LoadWith(cfg, func(k, v []byte) error {
		p := parts[txn.ShardKey(k, len(parts))]
		_, err := p.Store.Put(nil, k, v)
		return err
	})
}

// TotalBalanceWith sums every row through get (the conservation invariant
// checked by tests; deposits change it, payments must not). key is reused
// from row to row.
func TotalBalanceWith(cfg Config, get func(key []byte) int64) int64 {
	var sum int64
	key := make([]byte, 0, keyLen)
	for a := 0; a < cfg.Accounts; a++ {
		for _, row := range rows {
			sum += get(appendKey(key, row, a))
		}
	}
	return sum
}

// TotalBalance sums every row across participants placed by ShardKey.
func TotalBalance(parts []*txn.Participant, cfg Config) int64 {
	var val []byte
	return TotalBalanceWith(cfg, func(k []byte) int64 {
		p := parts[txn.ShardKey(k, len(parts))]
		it, err := p.Store.GetValue(nil, k, val[:0])
		if err != nil {
			panic(err)
		}
		val = it.Value
		return amount(val)
	})
}

// Gen produces SmallBank transactions.
type Gen struct {
	cfg  Config
	rng  *stats.RNG
	hotN int
	// OnlyPayments restricts the mix to SendPayment (used by invariant
	// tests).
	OnlyPayments bool
	// Counts tallies generated transactions by type.
	Counts [numTypes]uint64

	// tx is the one transaction Next rebuilds; apply holds each type's
	// Apply, bound once; vals and out back what an Apply returns.
	tx    genTxn
	apply [numTypes]func(rv, wv [][]byte) [][]byte
	vals  [3 * 8]byte
	out   [3][]byte
}

// NewGen returns a generator with its own random stream.
func NewGen(cfg Config, seed uint64) *Gen {
	hotN := int(float64(cfg.Accounts) * hotFraction)
	if hotN < 1 {
		hotN = 1
	}
	g := &Gen{cfg: cfg, rng: stats.NewRNG(seed), hotN: hotN}
	g.apply = [numTypes]func(rv, wv [][]byte) [][]byte{
		Amalgamate:      g.amalgamate,
		DepositChecking: g.depositChecking,
		SendPayment:     g.sendPayment,
		TransactSavings: g.transactSavings,
		WriteCheck:      g.writeCheck,
	}
	return g
}

// pickAccount draws from the hot set with hotProbability.
func (g *Gen) pickAccount() int {
	if g.rng.Float64() < hotProbability {
		return g.rng.Intn(g.hotN)
	}
	return g.rng.Intn(g.cfg.Accounts)
}

// pickTwo draws two distinct accounts.
func (g *Gen) pickTwo() (int, int) {
	a := g.pickAccount()
	b := g.pickAccount()
	for b == a {
		b = g.pickAccount()
	}
	return a, b
}

func (g *Gen) pickType() TxnType {
	if g.OnlyPayments {
		return SendPayment
	}
	r := g.rng.Intn(100)
	cum := 0
	for t := TxnType(0); t < numTypes; t++ {
		cum += Mix[t]
		if r < cum {
			return t
		}
	}
	return WriteCheck
}

// genTxn is one generated transaction with its key storage.
type genTxn struct {
	txn.Txn
	keys [3][]byte
	buf  [3 * keyLen]byte
}

// key appends the next row key to the transaction's storage.
func (g *genTxn) key(n int, row string, acct int) {
	start := n * keyLen
	g.keys[n] = appendKey(g.buf[start:start:start+keyLen], row, acct)
}

// Next builds one transaction. The generator owns what it returns: the
// *txn.Txn and its keys are valid until the next call to Next, and what
// its Apply returns until Apply's next call, which is all txn.RunLoop and
// a coordinator, running one transaction at a time, need.
func (g *Gen) Next() *txn.Txn {
	typ := g.pickType()
	g.Counts[typ]++
	t := &g.tx
	t.Txn = txn.Txn{Apply: g.apply[typ]}
	switch typ {
	case Amalgamate:
		a, b := g.pickTwo()
		// Move everything from a (both rows) into b's checking.
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.key(2, ck, b)
		t.Writes = t.keys[:3]
	case Balance:
		a := g.pickAccount()
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.Reads = t.keys[:2]
	case DepositChecking:
		t.key(0, ck, g.pickAccount())
		t.Writes = t.keys[:1]
	case SendPayment:
		a, b := g.pickTwo()
		t.key(0, ck, a)
		t.key(1, ck, b)
		t.Writes = t.keys[:2]
	case TransactSavings:
		t.key(0, sv, g.pickAccount())
		t.Writes = t.keys[:1]
	default: // WriteCheck
		a := g.pickAccount()
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.Reads, t.Writes = t.keys[:1], t.keys[1:2]
	}
	return &t.Txn
}

// The Apply of each updating type.

func (g *Gen) amalgamate(rv, wv [][]byte) [][]byte {
	total := amount(wv[0]) + amount(wv[1])
	return g.moneys(0, 0, amount(wv[2])+total)
}

func (g *Gen) depositChecking(rv, wv [][]byte) [][]byte {
	return g.moneys(amount(wv[0]) + 130)
}

func (g *Gen) sendPayment(rv, wv [][]byte) [][]byte {
	return g.moneys(amount(wv[0])-5, amount(wv[1])+5)
}

func (g *Gen) transactSavings(rv, wv [][]byte) [][]byte {
	return g.moneys(amount(wv[0]) + 20)
}

func (g *Gen) writeCheck(rv, wv [][]byte) [][]byte {
	check := int64(18)
	if amount(rv[0])+amount(wv[0]) < check {
		check++ // overdraft penalty
	}
	return g.moneys(amount(wv[0]) - check)
}

// moneys builds an Apply result, one row value per balance, in the
// generator's own storage: valid until the next Apply.
func (g *Gen) moneys(vs ...int64) [][]byte {
	out := g.out[:len(vs)]
	for i, v := range vs {
		out[i] = appendMoney(g.vals[8*i:8*i:8*i+8], v)
	}
	return out
}
