"""CEPF extractor (contentextractor/ContentExtractor.java) golden tests."""

import pytest

from webcollector_ray.extractor import (
    ContentExtractor,
    get_content_by_html,
    get_news_by_html,
)
from webcollector_ray import dom
from webcollector_ray.synth import (
    SynthSpec,
    article_time,
    article_title,
    expected_show_text,
    page_row,
)


def _show_gid(spec, site, j):
    return site * spec.pages_per_site + spec.lists_per_site + j


def test_synth_show_pages_byte_identical():
    """The per-row invariant of BASELINE.json: extracted text per url is
    byte-identical to the golden `text` column."""
    spec = SynthSpec(num_sites=2)
    for site in range(spec.num_sites):
        for j in range(spec.shows_per_site):
            row = page_row(spec, _show_gid(spec, site, j))
            html = row["html"].decode("utf-8")
            got = get_content_by_html(html, row["url"])
            assert got == row["text"], (site, j)
            assert got == expected_show_text(spec, site, j)


def test_news_title_and_time():
    spec = SynthSpec(num_sites=1)
    row = page_row(spec, _show_gid(spec, 0, 3))
    news = get_news_by_html(row["html"].decode("utf-8"), row["url"])
    assert news.title == article_title(0, 3)
    assert news.time == article_time(0, 3)
    assert news.url == row["url"]
    assert news.content == row["text"]


def test_clean_removes_script_style():
    html = """<html><head><title>T</title></head><body>
    <div><p>real content paragraph one with quite a few words in it</p>
    <p>and another paragraph of sensible text right here also long</p>
    <script>var a = 'should never appear 1234';</script>
    <style>.x{color:red}</style></div></body></html>"""
    content = get_content_by_html(html)
    assert "should never appear" not in content
    assert "real content" in content


def test_link_dense_nav_not_chosen():
    html = """<html><head><title>T</title></head><body>
    <div id="nav"><a href="1">AAAAAAAAAA</a><a href="2">BBBBBBBBBB</a>
    <a href="3">CCCCCCCCCC</a><a href="4">DDDDDDDDDD</a></div>
    <div id="art"><p>long prose paragraph number one with many interesting words</p>
    <p>long prose paragraph number two with many more interesting words</p></div>
    </body></html>"""
    d = dom.parse(html)
    ce = ContentExtractor(d)
    el = ce.get_content_element()
    # density punishes link text: the article div (or a child) wins
    assert d.select_first("#nav") is not el
    assert "long prose paragraph" in el.text()


def test_extraction_failed_raises():
    with pytest.raises(ValueError):
        ContentExtractor(dom.parse("<body><a href='x'>only links</a></body>")).get_content_element()


def test_variance_single_leaf_integer_division():
    # ContentExtractor.java:133-135: data[0] / 2 is Java int division
    assert ContentExtractor._var([5]) == 2.0
    assert ContentExtractor._var([]) == 0.0
    assert ContentExtractor._var([2, 4]) == 1.0


def test_time_from_ancestor():
    html = """<html><head><title>T</title></head><body>
    <div><span>2015-11-03 08:09:10</span>
    <div id="c"><p>body paragraph with plenty of words to win the scoring</p>
    <p>second body paragraph also with plenty of words to win</p></div></div>
    </body></html>"""
    news = get_news_by_html(html)
    assert news.time == "2015-11-03 08:09:10"


def test_date_fallback():
    html = """<html><head><title>T</title></head><body>
    <div><span>posted 2017/06/21</span>
    <div id="c"><p>body paragraph with plenty of words to win the scoring</p>
    <p>second body paragraph also with plenty of words to win</p></div></div>
    </body></html>"""
    news = get_news_by_html(html)
    assert news.time == "2017-06-21"


def test_title_by_id_fallback():
    # no <title> in head -> h-similarity path skipped -> *[id^=title] path
    html = """<html><head></head><body>
    <div id="titlebar">A Reasonable Headline</div>
    <div id="c"><p>body paragraph with plenty of words to win the scoring</p>
    <p>second body paragraph also with plenty of words to win here</p></div>
    </body></html>"""
    news = get_news_by_html(html)
    assert news.title == "A Reasonable Headline"


def test_lcs_and_sim():
    assert ContentExtractor._lcs("abcde", "ace") == 3
    assert ContentExtractor._str_sim("", "x") == 0.0
    assert ContentExtractor._str_sim("ab", "abababab") == 0.0  # ratio >= 3
    assert ContentExtractor._str_sim("abc", "abc") == 1.0


def test_bit_parallel_lcs_matches_dp():
    """_lcs equals the textbook LCS DP on seeded random pairs: short and
    long (above 64x64), empty, non-ASCII, small and large alphabets."""
    import random

    def dp(x, y):
        prev = [0] * (len(y) + 1)
        for xi in x:
            cur = [0]
            for j, yj in enumerate(y):
                cur.append(prev[j] + 1 if xi == yj else max(prev[j + 1], cur[j]))
            prev = cur
        return prev[-1]

    rng = random.Random(3000)
    alphabets = ["ab", "abcdefgh", "abc éü中文", "Quick brown fox news 2016"]
    for _ in range(3000):
        alpha = rng.choice(alphabets)
        top = rng.choice([5, 40, 150])
        x = "".join(rng.choice(alpha) for _ in range(rng.randint(0, top)))
        y = "".join(rng.choice(alpha) for _ in range(rng.randint(0, top)))
        assert ContentExtractor._lcs(x, y) == dp(x, y), (x, y)
    assert ContentExtractor._lcs("", "abc") == ContentExtractor._lcs("abc", "") == 0
    assert ContentExtractor._lcs("x" * 100, "x" * 70) == 70
