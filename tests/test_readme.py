import doctest
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_examples():
    # the ```python blocks run as one doctest session, in order; the fences
    # are left out, or a closing fence would be read as expected output
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    report = []
    runner = doctest.DocTestRunner()
    result = runner.run(test, out=report.append)
    assert result.attempted >= 20
    assert result.failed == 0, "".join(report)
