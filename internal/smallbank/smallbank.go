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

// Config shapes the benchmark.
type Config struct {
	Accounts       int
	InitialBalance int64
	// HotFraction of accounts receive HotProbability of the accesses
	// (paper: 4% of accounts, 60% of transactions).
	HotFraction    float64
	HotProbability float64
}

// DefaultConfig matches the paper: 1,000,000 accounts per server, 4%/60%
// hotspot. (Callers typically scale Accounts by the participant count.)
func DefaultConfig() Config {
	return Config{
		Accounts:       1_000_000,
		InitialBalance: 10_000,
		HotFraction:    0.04,
		HotProbability: 0.60,
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

// moneys builds an Apply result: one row value per balance, cut from a
// single backing array.
func moneys(vs ...int64) [][]byte {
	out := make([][]byte, len(vs))
	buf := make([]byte, 0, 8*len(vs))
	for i, v := range vs {
		buf = appendMoney(buf, v)
		out[i] = buf[8*i : 8*i+8 : 8*i+8]
	}
	return out
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
	return TotalBalanceWith(cfg, func(k []byte) int64 {
		p := parts[txn.ShardKey(k, len(parts))]
		it, err := p.Store.Get(nil, k)
		if err != nil {
			panic(err)
		}
		return amount(it.Value)
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
}

// NewGen returns a generator with its own random stream.
func NewGen(cfg Config, seed uint64) *Gen {
	hotN := int(float64(cfg.Accounts) * cfg.HotFraction)
	if hotN < 1 {
		hotN = 1
	}
	return &Gen{cfg: cfg, rng: stats.NewRNG(seed), hotN: hotN}
}

// pickAccount draws from the hot set with HotProbability.
func (g *Gen) pickAccount() int {
	if g.rng.Float64() < g.cfg.HotProbability {
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

// genTxn is one generated transaction with its key storage, so that Next
// costs one allocation however many rows the transaction names.
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

// Next builds one transaction.
func (g *Gen) Next() *txn.Txn {
	typ := g.pickType()
	g.Counts[typ]++
	t := &genTxn{}
	switch typ {
	case Amalgamate:
		a, b := g.pickTwo()
		// Move everything from a (both rows) into b's checking.
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.key(2, ck, b)
		t.Writes = t.keys[:3]
		t.Apply = func(rv, wv [][]byte) [][]byte {
			total := amount(wv[0]) + amount(wv[1])
			return moneys(0, 0, amount(wv[2])+total)
		}
	case Balance:
		a := g.pickAccount()
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.Reads = t.keys[:2]
	case DepositChecking:
		t.key(0, ck, g.pickAccount())
		t.Writes = t.keys[:1]
		t.Apply = func(rv, wv [][]byte) [][]byte {
			return moneys(amount(wv[0]) + 130)
		}
	case SendPayment:
		a, b := g.pickTwo()
		t.key(0, ck, a)
		t.key(1, ck, b)
		t.Writes = t.keys[:2]
		t.Apply = func(rv, wv [][]byte) [][]byte {
			return moneys(amount(wv[0])-5, amount(wv[1])+5)
		}
	case TransactSavings:
		t.key(0, sv, g.pickAccount())
		t.Writes = t.keys[:1]
		t.Apply = func(rv, wv [][]byte) [][]byte {
			return moneys(amount(wv[0]) + 20)
		}
	default: // WriteCheck
		a := g.pickAccount()
		t.key(0, sv, a)
		t.key(1, ck, a)
		t.Reads, t.Writes = t.keys[:1], t.keys[1:2]
		t.Apply = func(rv, wv [][]byte) [][]byte {
			check := int64(18)
			if amount(rv[0])+amount(wv[0]) < check {
				check++ // overdraft penalty
			}
			return moneys(amount(wv[0]) - check)
		}
	}
	return &t.Txn
}
