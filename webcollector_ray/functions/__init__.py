"""Training-pipeline operators over Ray Data (text stats, dedup,
similarity, sketches, windows, joins, graph). Import the submodule you
need: the package itself imports nothing, so a worker that only runs
the crawl's exchange kernel (joins) never loads the rest."""
