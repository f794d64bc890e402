"""Command-line frontend: word commands, random generators, benchmarks."""
