"""robots.txt policy + per-fetcher cache (north_rule frontier service).

The reference has NO robots support (WebCollector fetches
unconditionally; crawler/Crawler.java has no robots path) — this is a
north_rule extension: each fetch worker process holds a per-host robots
policy cache (ST1-style state, built lazily from the page store) and
consults it before every fetch.

Parsing follows the public REP (RFC 9309): group selection by
User-agent (exact token match case-insensitive, else the '*' group),
Allow/Disallow rules with '*' (any char run) and '$' (end anchor)
pattern syntax, most-specific-match-wins ordered by pattern octet
length with Allow winning ties (RFC 9309 §2.2.2), empty Disallow =
allow-all, missing/failed robots.txt = allow everything.
"""

from __future__ import annotations

import re
from typing import List, Optional, Pattern, Tuple
from urllib.parse import urlsplit


def _rule_regex(value: str) -> Pattern:
    """RFC 9309 path pattern -> anchored-at-start regex: '*' matches any
    char run; a trailing '$' anchors the end; a non-trailing '$' is a
    literal (the spec gives '$' meaning only as the last character)."""
    anchored = value.endswith("$")
    body = value[:-1] if anchored else value
    pat = ".*".join(re.escape(part) for part in body.split("*"))
    return re.compile(pat + ("$" if anchored else ""))


class RobotsPolicy:
    """Parsed rules for one host (for one user agent)."""

    __slots__ = ("rules",)

    def __init__(self, rules: List[Tuple[bool, str]]):
        # (allow, raw_pattern, regex), pre-sorted by pattern octet
        # length descending (most-specific first), Allow before
        # Disallow among equals (RFC 9309 §2.2.2)
        self.rules = [
            (allow, value, _rule_regex(value))
            for allow, value in sorted(
                rules, key=lambda r: (-len(r[1]), not r[0])
            )
        ]

    @classmethod
    def parse(cls, text: str, user_agent: str = "*") -> "RobotsPolicy":
        ua_token = user_agent.split("/")[0].strip().lower()
        groups: dict = {}  # ua -> list[(allow, prefix)]
        current_uas: List[str] = []
        last_was_ua = False
        for raw in (text or "").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            field, _, value = line.partition(":")
            field = field.strip().lower()
            value = value.strip()
            if field == "user-agent":
                if not last_was_ua:
                    current_uas = []
                current_uas.append(value.lower())
                for ua in current_uas:
                    groups.setdefault(ua, [])
                last_was_ua = True
            elif field in ("allow", "disallow"):
                last_was_ua = False
                if not current_uas:
                    continue
                if not value:  # empty Disallow == allow all
                    continue
                for ua in current_uas:
                    groups.setdefault(ua, []).append(
                        (field == "allow", value)
                    )
            else:
                last_was_ua = False
        rules = groups.get(ua_token)
        if rules is None:
            # longest UA token substring match, then '*'
            best = None
            for ua, r in groups.items():
                if ua != "*" and ua in ua_token:
                    if best is None or len(ua) > len(best[0]):
                        best = (ua, r)
            rules = best[1] if best else groups.get("*", [])
        return cls(rules)

    def allowed(self, path: str) -> bool:
        if not path.startswith("/"):
            path = "/" + path
        for allow, _value, rx in self.rules:
            if rx.match(path):
                return allow
        return True


ALLOW_ALL = RobotsPolicy([])


# process-lifetime policy store: Ray worker processes outlive the
# per-depth fetch waves, so robots.txt is fetched once per (scheme,
# host, user-agent) per WORKER, not once per depth (policies are
# assumed stable for the duration of a crawl)
_PROC_POLICY_CACHE: dict = {}


class RobotsCache:
    """Per-worker lazy host -> RobotsPolicy cache over a PageStoreReader."""

    def __init__(self, reader, user_agent: str = "*", max_hosts: int = 10000,
                 shared: bool = True):
        self.reader = reader
        self.user_agent = user_agent
        self.max_hosts = max_hosts
        self._cache = _PROC_POLICY_CACHE if shared else {}
        # store identity + UA in the key so concurrent crawls / tests
        # in one worker process never share policies across webs
        store_key = getattr(reader, "store_key", lambda: id(reader))()
        self._key_prefix = (store_key, user_agent)

    def _policy_for(self, scheme: str, netloc: str) -> RobotsPolicy:
        # scheme is part of the authority per RFC 9309 §2.3 — an http
        # and an https origin may serve different robots.txt files
        key = (self._key_prefix, scheme, netloc)
        pol = self._cache.get(key)
        if pol is None:
            row = self.reader.get(f"{scheme}://{netloc}/robots.txt")
            if row is None or row["code"] != 200 or not row["html"]:
                pol = ALLOW_ALL
            else:
                try:
                    pol = RobotsPolicy.parse(
                        row["html"].decode("utf-8", "replace"), self.user_agent
                    )
                except Exception:
                    pol = ALLOW_ALL
            if len(self._cache) >= self.max_hosts:
                self._cache.clear()  # simple bound; refetch is cheap
            self._cache[key] = pol
        return pol

    def allowed(self, url: str) -> bool:
        try:
            parts = urlsplit(url)
        except ValueError:
            return True
        if not parts.netloc:
            return True
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        return self._policy_for(parts.scheme or "http", parts.netloc).allowed(path)
