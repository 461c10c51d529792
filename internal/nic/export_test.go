package nic

// SendOrderLen returns the number of flows in n's send order: those with
// unsent or unacknowledged data.
func SendOrderLen(n *NIC) int { return len(n.sendOrder) }
