"""Golden digests of CLI reports: every report below stays byte-identical.

Each case runs cli.main in both formats and compares the sha256 of stdout,
stderr and the exit status with values pinned from a known good tree.
The reports cover the code paths that read block-triangular forms back
(peeling, classification, the tower cocycles and the deformation round
trip), so a change of any canonical basis shows here.

To re-pin after an intended change of output, run this file as a script:
it prints the DIGESTS table for the current tree.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from uniserial.cli import main

A4_RELATION = """specfile quiver v1
node 1
node 2
node 3
node 4
arrow a 1 2
arrow b 2 3
arrow c 3 4
relation a.b
"""

A3_REP = """specfile quiver v1
node 1
node 2
node 3
arrow a 1 2
arrow b 2 3
rep dim 1 1
rep dim 2 2
rep dim 3 1
rep map a 2x1 1;0
rep map b 1x2 1,0
"""

QUIVERS = {"a4": A4_RELATION, "a3rep": A3_REP}

REPORTS = {
    "verify-weyl": ["verify-weyl", "--n-max", "3", "--alphas", "1/2,1/3+1/2*i"],
    "classify-half": ["classify", "--start", "1/2", "--n", "3"],
    "classify-inf": ["classify", "--start", "inf", "--n", "3"],
    "ext-table": ["ext-table", "--labels", "1/2,1/3+1/2*i", "--max-offset", "2"],
    "deform-euler-half": ["deform", "--kind", "euler", "--alpha", "1/2", "--n", "3"],
    "deform-word-0": ["deform", "--kind", "word", "--beta", "0", "--n", "3"],
    "deform-euler-complex": ["deform", "--kind", "euler", "--alpha", "1/3+1/2*i", "--n", "2"],
    "classify-quiver-2": ["classify", "--quiver", "{a4}", "--n", "2"],
    "classify-quiver-3": ["classify", "--quiver", "{a4}", "--n", "3"],
    "deform-quiver": ["deform", "--quiver", "{a3rep}"],
}

# (sha256 of stdout, stderr, exit status) per (report, format)
DIGESTS = {
    ('classify-half', 'human'): ('edc7bcf7ec7550fb639bf42a149ecbe4f2d4f20851a49303e88b737bde017718', '', 0),
    ('classify-half', 'machine'): ('cab0da19d97f79693f6ec8ea02e0cd898e2fb2542fea2fbe8e52e604f779dffe', '', 0),
    ('classify-inf', 'human'): ('9f4780334112e0beffc42c7fd083a2ada5baf273a98b874e5f8ebc672a4f21d2', '', 0),
    ('classify-inf', 'machine'): ('9ce26aca4a5b44c3ee6655d8895e0e3f6eb3ac59131cc8a2bb0c0f7184d1874f', '', 0),
    ('classify-quiver-2', 'human'): ('a423f580e70d7c2bb87817e46b59444e1a9bd6d4a2d48a0c729d996190851186', '', 0),
    ('classify-quiver-2', 'machine'): ('d33bd4d20ffc0d3428989fac3ca8a84f0d9bc7591332504b5d6d7e3b6edc0310', '', 0),
    ('classify-quiver-3', 'human'): ('efc03ec04bc6c95d724d72f2766bd48d7e1e4aa7f7bcc69fd6c66003eb50db8a', '', 0),
    ('classify-quiver-3', 'machine'): ('893ac7d9c397eb2e7ab587b716d836c1345510c1712aed3d6fad007ef0827c67', '', 0),
    ('deform-euler-complex', 'human'): ('2e19eea8a27d20a1e23d4e3f236c80edae8330b2a67da1bff570ddab72294a7c', '', 0),
    ('deform-euler-complex', 'machine'): ('931e7924fb90486e2040ae23354c411fec5372511050012b2482885e4c191933', '', 0),
    ('deform-euler-half', 'human'): ('c225de6b25d63880c23ed4feb9e3688ab4f87d5864d21984cb1a620deef7aacd', '', 0),
    ('deform-euler-half', 'machine'): ('638e0139b9cd20cc3429cd8a85cc195770e460006d5547851d76dfd0a3813d9f', '', 0),
    ('deform-quiver', 'human'): ('1d11e5654ff32580ff5dee768c3dad8dd631f1755ae97a5350dd86656b07e98f', '', 0),
    ('deform-quiver', 'machine'): ('6e4c70791960abe03153e65278293be81c8cc8a7cbf9d8241f774025fbb29c86', '', 0),
    ('deform-word-0', 'human'): ('091b3053f47acff72df85abc36bbc7cdfb7e6dddbae90d3f0b459b869074f6f4', '', 0),
    ('deform-word-0', 'machine'): ('224808c73787f280cce62d829b85c0eaf28fc100dd0ddf818ed38d4c6daa9363', '', 0),
    ('ext-table', 'human'): ('61cc2b0cd5dea19278ed2ed07a98240ce4018e04a0ed3446bab0a47d6f869fda', '', 0),
    ('ext-table', 'machine'): ('17f2220a375ae6d71c982bfca1a96b50c7a215ee9d3f9488b27466de222a8bea', '', 0),
    ('verify-weyl', 'human'): ('379b83ea372cba59dbce63ddddf60b33d51ea29499d2cb4f4faed5064e80c304', '', 0),
    ('verify-weyl', 'machine'): ('189db7fd75541f439586d672b97c7cfee10925915241a5c3bb752a0034c474e0', '', 0),
}


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(folder, name, fmt):
    """(sha256 of stdout, stderr, exit status) of one report, its quiver files written to folder."""
    paths = {key: folder / ("%s.quiver" % key) for key in QUIVERS}
    for key, path in paths.items():
        path.write_text(QUIVERS[key])
    argv = [a.format(**paths) for a in REPORTS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv + ["--format", fmt])
    return sha(out.getvalue()), err.getvalue(), status


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_byte_identical(tmp_path, name, fmt):
    assert report_digest(tmp_path, name, fmt) == DIGESTS[(name, fmt)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        print("DIGESTS = {")
        for name in sorted(REPORTS):
            for fmt in ("human", "machine"):
                print("    %r: %r," % ((name, fmt), report_digest(Path(folder), name, fmt)))
        print("}")
