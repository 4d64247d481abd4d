package smallbank

// HotFraction exposes the share of accounts in the hot set.
const HotFraction = hotFraction
