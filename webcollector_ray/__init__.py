"""webcollector_ray — a Ray-Data-native web-crawl data-processing engine.

A from-scratch rebuild of the semantics of CrawlScript/WebCollector
(reference: /root/reference, Java, v2.74-alpha) on top of ray.data.Dataset:

- the CrawlDatum frontier is a partitioned Arrow/Parquet table
  (reference: model/CrawlDatum.java),
- each crawl depth is a pure Dataset -> Dataset round
  (merge -> generate -> fetch -> parse -> segment write;
  reference: crawler/Crawler.java, fetcher/Fetcher.java),
- fetch is one raw Ray task per frontier block doing url lookups
  against a Common-Crawl-style pages table (reference fetch:
  plugin/net/OkHttpRequester.java),
- the per-depth merge (fetch overwrites crawldb, link inserts if absent;
  reference: plugin/rocks/RocksDBManager.java:160-197) is a bucketed
  groupby shuffle,
- CEPF news-content extraction (reference:
  contentextractor/ContentExtractor.java) runs as a vectorized
  map_batches transform.

Nothing here is a code port: the execution engine is Ray Data's streaming
executor; only the *semantics* of the reference are reproduced.
"""

__version__ = "0.1.0"

from .config import CrawlerConfig  # noqa: F401
from .model import (  # noqa: F401
    CrawlDatum,
    CrawlDatums,
    FRONTIER_SCHEMA,
    PAGES_SCHEMA,
    STATUS_DB_UNEXECUTED,
    STATUS_DB_FAILED,
    STATUS_DB_SUCCESS,
)
from .regex_rule import RegexRule  # noqa: F401
