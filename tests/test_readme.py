"""README's Python examples run as written and print what it says they print."""

import contextlib
import io
import pathlib
import re

from prefix_global import demo_corpus_path
from test_page import CORPUS_FIELDS, MODEL_ATTRS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def printed(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue()


def test_readme_python_blocks_run():
    corpus, library, dataset = python_blocks()
    assert printed(corpus).strip() == str(demo_corpus_path())
    assert printed(library).split() == ["114432"]
    lines = printed(dataset).splitlines()
    assert len(lines) == 4 and "'candidates'" in lines[0]
    assert all(line.split()[0] in ("train", "val", "test") for line in lines[1:])


def corpus_format():
    return README.read_text(encoding="utf-8").split("## Corpus format\n", 1)[1].split("\n## ", 1)[0]


def test_corpus_format_names_every_field():
    assert [field for field in CORPUS_FIELDS if f"`{field}`" not in corpus_format()] == []


def test_corpus_format_names_the_model_field_of_every_key():
    # a refusal names the model field, so the table must lead back to the key
    rows = [f"| `{key}` | `{CORPUS_FIELDS[key][0]} {attr}`" for key, attr in MODEL_ATTRS.items()]
    assert [row for row in rows if row not in corpus_format()] == []
