package link

import "time"

// TxBacklog reports how far in the future the transmit side is committed.
func (p *Port) TxBacklog() time.Duration {
	now := p.S.Now()
	if p.txFree <= now {
		return 0
	}
	return p.txFree.Sub(now)
}
