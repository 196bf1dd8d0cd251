"""DOM parser + selector subset + Jsoup-style text()."""

from webcollector_ray import dom


HTML = """<html><head><title> My  Title </title></head><body>
<div id="a" class="outer box">
  <p>Hello   <b>world</b></p>
  <p>Second</p>
  <a href="x.html">link</a>
  <img src="i.png">
</div>
<div id="b"><span class="t">S</span></div>
</body></html>"""


def test_structure_and_title():
    d = dom.parse(HTML, "http://h.test/dir/page.html")
    assert d.title() == "My Title"
    assert d.body().tag == "body"
    assert d.head().tag == "head"


def test_text_normalization():
    d = dom.parse(HTML)
    el = d.select_first("#a")
    # p are block => joined with single space; inline <b> no extra space
    assert el.select_first("p").text() == "Hello world"
    assert el.text() == "Hello world Second link"


def test_br_and_inline_spacing():
    d = dom.parse("<body><p>a<br>b</p><p>c<span>d</span></p></body>")
    assert d.body().text() == "a b cd"


def test_selectors():
    d = dom.parse(HTML)
    assert [e.tag for e in d.select("p")] == ["p", "p"]
    assert d.select_first("#b span").text() == "S"
    assert len(d.select("div.outer")) == 1
    assert len(d.select(".box")) == 1
    assert len(d.select("div > p")) == 2
    assert len(d.select("body > p")) == 0
    assert len(d.select("p, span")) == 3
    assert len(d.select("a[href]")) == 1
    assert len(d.select("*[src]")) == 1
    assert d.select("[class^=out]")[0].id() == "a"
    assert d.select("[class$=box]")[0].id() == "a"
    assert d.select("[id*=b]")[0].id() == "b"


def test_abs_attr():
    d = dom.parse(HTML, "http://h.test/dir/page.html")
    assert d.select_first("a").attr("abs:href") == "http://h.test/dir/x.html"
    assert d.select_first("img").attr("abs:src") == "http://h.test/dir/i.png"
    # no base uri -> ""
    d2 = dom.parse("<body><a href='rel.html'>x</a></body>")
    assert d2.select_first("a").attr("abs:href") == ""


def test_each_attr_requires_attribute():
    d = dom.parse("<body><a href='1'>x</a><a name='n'>y</a></body>", "http://h.test/")
    assert d.select("a").each_attr("href") == ["1"]
    assert d.select("a[href]").each_attr("abs:href") == ["http://h.test/1"]


def test_void_and_autoclose():
    d = dom.parse("<body><ul><li>one<li>two</ul><p>par<div>block</div></body>")
    lis = d.select("li")
    assert [e.text() for e in lis] == ["one", "two"]
    # <p> auto-closed by <div>
    p = d.select_first("p")
    assert p.text() == "par"


def test_entities_decoded():
    d = dom.parse("<body><p>a &amp; b &lt;c&gt;</p></body>")
    assert d.select_first("p").text() == "a & b <c>"


def test_remove():
    d = dom.parse("<body><p>keep</p><script>bad()</script></body>")
    d.select("script").remove()
    assert d.body().text() == "keep"
    assert len(d.select("script")) == 0


def test_outer_html_roundtrip():
    d = dom.parse('<body><div id="x"><p>t</p></div></body>')
    out = d.select_first("#x").outer_html()
    assert out == '<div id="x"><p>t</p></div>'


def test_malformed_unclosed_tags():
    # unclosed <p>/<li>: parser must not crash; text stays complete
    d = dom.parse("<body><ul><li>one<li>two</ul><p>para<div>after</div></body>")
    txt = d.body().text()
    assert "one" in txt and "two" in txt and "para" in txt and "after" in txt


def test_entities_and_comments():
    d = dom.parse("<body><p>a &amp; b &lt;c&gt; &#65;</p><!-- hidden --></body>")
    assert d.body().text() == "a & b <c> A"
    assert "hidden" not in d.body().text()


def test_script_style_not_text():
    d = dom.parse(
        "<body><script>var x=1;</script><style>.a{}</style><p>real</p></body>"
    )
    # script/style contents excluded from text() like Jsoup's element text
    assert d.body().text() == "real"


def test_attr_quirks():
    d = dom.parse(
        '<body><a href=unquoted target="_blank" DATA-X="1" checked>x</a></body>'
    )
    a = d.select_first("a")
    assert a.attr("href") == "unquoted"
    assert a.attr("data-x") == "1"        # attribute names lowercased
    assert a.has_attr("checked")           # boolean attribute present
    assert a.attr("missing") == ""         # Jsoup: empty string, not None


def test_abs_url_edge_cases():
    base = "http://h.test/a/b/page.html"
    d = dom.parse(
        '<body><a href="c.html">1</a><a href="/root.html">2</a>'
        '<a href="//other.test/x">3</a><a href="?q=1">4</a>'
        '<a href="#frag">5</a><a href="http://abs.test/z">6</a></body>',
        base,
    )
    hrefs = [e.abs_attr("href") for e in d.select("a")]
    assert hrefs[0] == "http://h.test/a/b/c.html"
    assert hrefs[1] == "http://h.test/root.html"
    assert hrefs[2] == "http://other.test/x"
    assert hrefs[3] == "http://h.test/a/b/page.html?q=1"
    assert hrefs[4].startswith("http://h.test/a/b/page.html")
    assert hrefs[5] == "http://abs.test/z"


def test_nested_same_tag_and_case():
    d = dom.parse("<BODY><DIV id=o><div id=i>x</div></DIV></BODY>")
    assert d.select_first("#o") is not None
    assert d.select_first("#o #i").text() == "x"
    assert d.select_first("div div").id() == "i"


# ---- extended selector surface (Jsoup pseudo-classes + siblings) ------

_LIST_HTML = (
    "<body><ul>"
    '<li id="a">alpha</li><li id="b">beta</li><li id="c">gamma</li>'
    '<li id="d">delta</li>'
    "</ul>"
    '<div id="x"><p>one</p><span>two</span><p>three</p></div></body>'
)


def test_selector_index_pseudos():
    d = dom.parse(_LIST_HTML)
    # Jsoup :eq(n) = element sibling index (0-based)
    assert [e.id() for e in d.select("li:eq(1)")] == ["b"]
    assert [e.id() for e in d.select("li:lt(2)")] == ["a", "b"]
    assert [e.id() for e in d.select("li:gt(2)")] == ["d"]


def test_selector_structural_pseudos():
    d = dom.parse(_LIST_HTML)
    assert [e.id() for e in d.select("li:first-child")] == ["a"]
    assert [e.id() for e in d.select("li:last-child")] == ["d"]
    assert [e.id() for e in d.select("li:nth-child(2)")] == ["b"]
    assert [e.id() for e in d.select("li:nth-child(odd)")] == ["a", "c"]
    assert [e.id() for e in d.select("li:nth-child(2n+1)")] == ["a", "c"]
    assert [e.id() for e in d.select("li:nth-child(even)")] == ["b", "d"]


def test_selector_sibling_combinators():
    d = dom.parse(_LIST_HTML)
    assert [e.id() for e in d.select("#a + li")] == ["b"]
    assert [e.id() for e in d.select("#a ~ li")] == ["b", "c", "d"]
    assert [e.text() for e in d.select("span + p")] == ["three"]
    assert d.select("#d + li") == []


def test_selector_contains_not_has():
    d = dom.parse(_LIST_HTML)
    assert [e.id() for e in d.select("li:contains(bet)")] == ["b"]
    assert [e.id() for e in d.select("li:not(#a)")] == ["b", "c", "d"]
    assert [e.id() for e in d.select("div:has(span)")] == ["x"]
    assert d.select("ul:has(span)") == []


def test_selector_group_and_nested_parens_safe():
    d = dom.parse(_LIST_HTML)
    got = [e.id() for e in d.select("li:eq(0), li:eq(3)")]
    assert got == ["a", "d"]


def test_comments_kept_in_html_invisible_to_text():
    h = ("<!DOCTYPE html><html><body><div id=x>before"
         "<!-- published 2021-03-04 -->after</div>"
         "<!--[if IE]>legacy<![endif]--></body></html>")
    d = dom.parse(h)
    x = d.select_first("#x")
    # Jsoup Comment semantics: html() keeps it, text() does not
    assert "<!-- published 2021-03-04 -->" in x.outer_html()
    assert x.text() == "beforeafter"
    assert d.select("#x")  # selectors unaffected by comment children
    # document serialization re-emits the doctype, no #document wrapper
    out = d.outer_html()
    assert out.startswith("<!DOCTYPE html>")
    assert "<!--[if IE]>legacy<![endif]-->" in out
    assert "#document" not in out


def test_comment_before_content_parks_in_head():
    d = dom.parse("<!-- a --><p>hi</p>")
    # the comment must not flip the parser into body mode
    assert d.body().text() == "hi"
    assert "<!-- a -->" in d.head().outer_html()


def test_outer_html_around_equals_outer_html():
    """An ancestor's serialisation built around its child's equals its
    own outer_html(), up to the Document (doctype included)."""
    d = dom.parse("<!DOCTYPE html>" + HTML.replace("<b>", "<!-- c --><b x='&amp;'>"))
    for el in d.elements():
        inner = el.outer_html()
        p = el.parent
        while p is not None:
            inner = p.outer_html_around(el, inner)
            assert inner == p.outer_html(), (el.tag, p.tag)
            el, p = p, p.parent


def test_normalised_len_equals_text_len():
    """normalised_len(s) == len(normalise_whitespace(s)), whitespace runs
    of every kind and length included."""
    import random

    rng = random.Random(7)
    alphabet = [" ", "  ", "\t", "\n", "\r", "\f", "\v", "\xa0", "a", "é", "<"]
    for _ in range(2000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert dom.normalised_len(s) == len(dom.normalise_whitespace(s)), repr(s)
