"""Crawl stages: generate, merge, execute, extract. Import the submodule
you need: the package itself imports nothing, so a worker that unpickles
a merge task never loads the fetch and extraction modules."""
