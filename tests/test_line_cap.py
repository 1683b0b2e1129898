"""``src/vfc`` stays under its line cap: the design aim is the same
behaviour from less code, so growth has to be paid for by cuts."""

import pathlib

import vfc

#: the cap on the lines of ``src/vfc/*.py`` together
CAP = 6000


def test_src_vfc_stays_under_the_line_cap():
    files = sorted(pathlib.Path(vfc.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    assert lines < CAP, f"src/vfc has {lines} lines; the cap is {CAP}"
