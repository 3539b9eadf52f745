"""Framework engines and profiles for the five systems of the paper."""
