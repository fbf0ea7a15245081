"""smlc: transformations and oracles for regular set-multilinear circuits."""
