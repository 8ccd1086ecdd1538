// Golden BAD snippet for the doc-citation check: the comment below names
// a design document that exists nowhere the check looks.

// The weight formula is derived in DESIGN.md "Substitutions".
double PairWeight(double similarity) { return 0.05 + 0.95 * similarity; }
