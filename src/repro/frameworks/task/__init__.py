"""Task engine and the Galois front-end."""
