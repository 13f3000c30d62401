"""Golden digests of whole reports: every byte of stdout, in process.

Each entry is the sha256 of what ``cuntzrep.cli.main`` prints for one
invocation, with its exit code.  The check reports cover every suite on
six representations at the default bounds (rep ``2`` exits 1 with its
recorded failures), and on the long cycle ``1112122`` and the rotated
``21`` at small bounds with ``m_max`` above ``n_max``; the
``apply``/``expand`` queries carry fractional and irrational coefficients in
text, ``--format json`` and ``--unicode``.  A change that alters any output
must be a bug fix: re-record with ``PYTHONPATH=src python
tests/test_reports.py`` and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from cuntzrep.cli import main

CHECK_REPS = ("1", "12", "112", "2", "1+12", "1122")
SMALL_CHECK_REPS = ("1112122", "21")
SMALL_BOUNDS = ("--n-max", "2", "--m-max", "5", "--depth", "3")

QUERIES = (
    ("apply", "--rep", "12", "--expr", "b(2)* b(1)*", "--state", "1/2*vac - sqrt(3)*|2;0>"),
    ("apply", "--rep", "112", "--expr", "b(3) - 2/3*sqrt(5)*b(1)*", "--state", "(1 + sqrt(2))*|21;1> + 3/4*|1;2>"),
    ("apply", "--rep", "1", "--expr", "rho(t2* F(2)) + 1/2*b(2)*", "--state", "sqrt(6)*|22;0> - 5/7*|12;0> + |2;0>"),
    ("apply", "--rep", "1+12", "--expr", "b(2) b(2)* - sqrt(3)*b(1)", "--state", "|0:2;0> + 1/3*sqrt(2)*|1:1;1>"),
    ("apply", "--rep", "1122", "--expr", "b(1)* b(2)* + 3/5*F(2)", "--state", "sqrt(10)*|12;2> - 7/2*vac(3)"),
    ("apply", "--rep", "12", "--expr", "W(2) + sqrt(7)*X(1) - 1/4*a(2)*", "--state", "(sqrt(2) - 1)*|1;0> + 2*|212;1>"),
    ("apply", "--rep", "12", "--expr", "b(1)*", "--state", "1/1000000007*|1;0> - 123456789/2*sqrt(30)*|2;1>"),
    ("expand", "--expr", "(1 + sqrt(2))*a(3) a(3)* - 3/4*a(1)* a(2) + sqrt(6)*zeta(a(1))"),
    ("expand", "--expr", "sqrt(2)*a(1)* sqrt(3)*a(2) + 1/6*sqrt(6)*a(2) a(1)*", "--depth", "3"),
    ("expand", "--expr", "(sqrt(3) - 1/2)*W(1) + 2/3*sqrt(5)*X(2)"),
    ("apply", "--rep", "1122", "--expr", "psi(-3/2)* X(2) + sqrt(2)*psi(1/2) - X(1)*", "--state", "|21;2> + 1/2*vac(1) + sqrt(3)*|1122;0>"),
    ("expand", "--expr", "X(3) psi(-1/2)* + 2/3*psi(3/2)"),
)
FORMATS = ((), ("--format", "json"), ("--unicode",))


def _invocations():
    for rep in CHECK_REPS:
        yield ("check", "--suite", "all", "--rep", rep, "--format", "json")
    for rep in SMALL_CHECK_REPS:
        yield ("check", "--suite", "all", "--rep", rep, *SMALL_BOUNDS, "--format", "json")
    for query in QUERIES:
        for fmt in FORMATS:
            yield query + fmt


def _digest(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDEN = {
    "check --suite all --rep 1 --format json":
        (0, "36dbfe89325d9d46819fa9d4b146ffb577cce3dca694acc2be31b9ff041b501e"),
    "check --suite all --rep 12 --format json":
        (0, "f487d7431b7e295da944a192c484a16604a47a22e3460e961c6c944e26ce2e97"),
    "check --suite all --rep 112 --format json":
        (0, "cb272e7d363b4588a4f31664dd16702fbef0f9a70b476d66d06ddc81a4388339"),
    "check --suite all --rep 2 --format json":
        (1, "53ab800794cffd62fe5f8c69f7a99389d8d27ea7f78176ec81778d5e303e7cbd"),
    "check --suite all --rep 1+12 --format json":
        (0, "8c602db02f0ad651fc2318545b8dbac09cae5361a95d3eabb4400390591a4c40"),
    "check --suite all --rep 1122 --format json":
        (0, "c634e1af0aa878e8190592c5067128f811f8e411e173232d7fca45d78be8b715"),
    "check --suite all --rep 1112122 --n-max 2 --m-max 5 --depth 3 --format json":
        (0, "939df4d6b03a21d178188c4faddb7123a8b1af8dc2bfef62465243be849063a1"),
    "check --suite all --rep 21 --n-max 2 --m-max 5 --depth 3 --format json":
        (0, "34a19fc5a1dd7c174de9f68475931695b656f7471b3927f9ff3e6f178bf85bf0"),
    "apply --rep 12 --expr b(2)* b(1)* --state 1/2*vac - sqrt(3)*|2;0>":
        (0, "b3d6a23be1f2b353c06bd5ebbc24c3a47fb3188863f30549f4c4b1c39c36fa8b"),
    "apply --rep 12 --expr b(2)* b(1)* --state 1/2*vac - sqrt(3)*|2;0> --format json":
        (0, "6d18ed53a713a6b8663c770b95a37993b7c7f8eef7183ba9734d366625af714c"),
    "apply --rep 12 --expr b(2)* b(1)* --state 1/2*vac - sqrt(3)*|2;0> --unicode":
        (0, "8d731c61342150bb8002870abe7d0db8fb10e402f719f0db06ee4773638ffc09"),
    "apply --rep 112 --expr b(3) - 2/3*sqrt(5)*b(1)* --state (1 + sqrt(2))*|21;1> + 3/4*|1;2>":
        (0, "6242cb580721ab358c727cea5289493c16aea16628a26eea11cde25075299c0f"),
    "apply --rep 112 --expr b(3) - 2/3*sqrt(5)*b(1)* --state (1 + sqrt(2))*|21;1> + 3/4*|1;2> --format json":
        (0, "c33e1c20c8ad4eb316e7419ef689bafcc0193a807895bff6b94309946769ee4d"),
    "apply --rep 112 --expr b(3) - 2/3*sqrt(5)*b(1)* --state (1 + sqrt(2))*|21;1> + 3/4*|1;2> --unicode":
        (0, "58ae558208dc7eaf14645400d3fd89fcfa0c0ad44f7d7c894fba54a6152efe1d"),
    "apply --rep 1 --expr rho(t2* F(2)) + 1/2*b(2)* --state sqrt(6)*|22;0> - 5/7*|12;0> + |2;0>":
        (0, "37f00f48324ed371f2992fbfce3bc59a1fa42c3193f0a7b82566c43f141f8725"),
    "apply --rep 1 --expr rho(t2* F(2)) + 1/2*b(2)* --state sqrt(6)*|22;0> - 5/7*|12;0> + |2;0> --format json":
        (0, "186283162da95f787f8b1d9fecd8b5812f8e604a3d2fa5dd2e8efe6b73d862c2"),
    "apply --rep 1 --expr rho(t2* F(2)) + 1/2*b(2)* --state sqrt(6)*|22;0> - 5/7*|12;0> + |2;0> --unicode":
        (0, "9d7e91dfcb90777aad1549b59e7fd6d3380d8c3bce031e81967064cf032a4152"),
    "apply --rep 1+12 --expr b(2) b(2)* - sqrt(3)*b(1) --state |0:2;0> + 1/3*sqrt(2)*|1:1;1>":
        (0, "3eefd32fe7404dd6405aaacc4c1e191a398e8ed910bf87bd6be749d8944d7e51"),
    "apply --rep 1+12 --expr b(2) b(2)* - sqrt(3)*b(1) --state |0:2;0> + 1/3*sqrt(2)*|1:1;1> --format json":
        (0, "deb8705485f9b98f64adaccd445fcef8ea42c0da9360109a42a7de11808e0e5b"),
    "apply --rep 1+12 --expr b(2) b(2)* - sqrt(3)*b(1) --state |0:2;0> + 1/3*sqrt(2)*|1:1;1> --unicode":
        (0, "00c5eb510305680fd102e997f6b6e9bc8d7e5cc3115b7e965290600c01f84c31"),
    "apply --rep 1122 --expr b(1)* b(2)* + 3/5*F(2) --state sqrt(10)*|12;2> - 7/2*vac(3)":
        (0, "e67ff4b7482c56c4683f63520416808ede88faa7549ea2c9d37152fd1e244390"),
    "apply --rep 1122 --expr b(1)* b(2)* + 3/5*F(2) --state sqrt(10)*|12;2> - 7/2*vac(3) --format json":
        (0, "8b42c14051be70f02fecec0259210053efc245bc3175f0ccc6dabe0f594319ef"),
    "apply --rep 1122 --expr b(1)* b(2)* + 3/5*F(2) --state sqrt(10)*|12;2> - 7/2*vac(3) --unicode":
        (0, "6957f32fb2638ebaea05733c418031e2ccb6b8453dbd6371d22f6fab446c138c"),
    "apply --rep 12 --expr W(2) + sqrt(7)*X(1) - 1/4*a(2)* --state (sqrt(2) - 1)*|1;0> + 2*|212;1>":
        (0, "2e2a683c96ea7e013150b75043aecee19c534264fe1024049cf55fa7c11371cb"),
    "apply --rep 12 --expr W(2) + sqrt(7)*X(1) - 1/4*a(2)* --state (sqrt(2) - 1)*|1;0> + 2*|212;1> --format json":
        (0, "6bfc458f27ab4877232b024d01f1624a4c788bc63dea2684f80829fc5f2b7328"),
    "apply --rep 12 --expr W(2) + sqrt(7)*X(1) - 1/4*a(2)* --state (sqrt(2) - 1)*|1;0> + 2*|212;1> --unicode":
        (0, "a204981ebcda9bcc8cf5a3586f12376c963571e36f3a15e2a3ca1d442d6a80ff"),
    "apply --rep 12 --expr b(1)* --state 1/1000000007*|1;0> - 123456789/2*sqrt(30)*|2;1>":
        (0, "b8e2f044d51c38f860e0ce0d25b93fd214a356f036c62ae0c9072031d060a73e"),
    "apply --rep 12 --expr b(1)* --state 1/1000000007*|1;0> - 123456789/2*sqrt(30)*|2;1> --format json":
        (0, "5a02d165b63ee41617948ec1e89ca68f5ebcecee8ebae059d9908c4b8630b426"),
    "apply --rep 12 --expr b(1)* --state 1/1000000007*|1;0> - 123456789/2*sqrt(30)*|2;1> --unicode":
        (0, "9786db23b3ae9de79b117d589ad862f5245b3d58b70478a82fe3d8fde4c23563"),
    "expand --expr (1 + sqrt(2))*a(3) a(3)* - 3/4*a(1)* a(2) + sqrt(6)*zeta(a(1))":
        (0, "5f83b0256c95435e18998a9ca071dccdef8f97db5d549d365034857ba2668203"),
    "expand --expr (1 + sqrt(2))*a(3) a(3)* - 3/4*a(1)* a(2) + sqrt(6)*zeta(a(1)) --format json":
        (0, "972cd5dacf592980e6711245cb7c98d914d15895aef0577c3e5eac3666fa80c7"),
    "expand --expr (1 + sqrt(2))*a(3) a(3)* - 3/4*a(1)* a(2) + sqrt(6)*zeta(a(1)) --unicode":
        (0, "071896134613229d0592321437f2ab25a161be03907686382a1023fd78e706fc"),
    "expand --expr sqrt(2)*a(1)* sqrt(3)*a(2) + 1/6*sqrt(6)*a(2) a(1)* --depth 3":
        (0, "d656c50fc8074421a8a19db679dc26d5be781aa6b1a3db321823567e50b006e4"),
    "expand --expr sqrt(2)*a(1)* sqrt(3)*a(2) + 1/6*sqrt(6)*a(2) a(1)* --depth 3 --format json":
        (0, "9707d9d8be75c02449de302d0358f05c4e861c041c1ec1113357a600610e60ad"),
    "expand --expr sqrt(2)*a(1)* sqrt(3)*a(2) + 1/6*sqrt(6)*a(2) a(1)* --depth 3 --unicode":
        (0, "7750db7fc170c3a7b88c56788a9dbcfb8d50eda9410e790b19340a45151c51bd"),
    "expand --expr (sqrt(3) - 1/2)*W(1) + 2/3*sqrt(5)*X(2)":
        (0, "d08c4bcec34a24c1e4ee93fa1262fcf40007327856aeecedc0beec6eafe70cd2"),
    "expand --expr (sqrt(3) - 1/2)*W(1) + 2/3*sqrt(5)*X(2) --format json":
        (0, "8cc2e3fcfe282bd23d7c2890341d147d800e703df3be12ad963290b673bba1a7"),
    "expand --expr (sqrt(3) - 1/2)*W(1) + 2/3*sqrt(5)*X(2) --unicode":
        (0, "f809979c927fa6342b1f995d07f70c654711a35b78977eecda1e832a1689d658"),
    "apply --rep 1122 --expr psi(-3/2)* X(2) + sqrt(2)*psi(1/2) - X(1)* --state |21;2> + 1/2*vac(1) + sqrt(3)*|1122;0>":
        (0, "534b19c26413896d54d2ac2ddede9c79a1a0cd881cea35f4e9c985559b62dede"),
    "apply --rep 1122 --expr psi(-3/2)* X(2) + sqrt(2)*psi(1/2) - X(1)* --state |21;2> + 1/2*vac(1) + sqrt(3)*|1122;0> --format json":
        (0, "2ad6fe6bccc3a7d8f45eb8efb2275ca7527ea7e737744585fe4956b44aaeaafd"),
    "apply --rep 1122 --expr psi(-3/2)* X(2) + sqrt(2)*psi(1/2) - X(1)* --state |21;2> + 1/2*vac(1) + sqrt(3)*|1122;0> --unicode":
        (0, "e2bbf20f84c8eb6dcefe0a1a533b73875debbbe828eef7da114ba6d404dcc085"),
    "expand --expr X(3) psi(-1/2)* + 2/3*psi(3/2)":
        (0, "31a05a928e2ed46aa5f3cc441f73d6c61b313f63167d4765c5b4884afc766225"),
    "expand --expr X(3) psi(-1/2)* + 2/3*psi(3/2) --format json":
        (0, "1e5b5d0a05b4cd345e9040182ee17f8110aa3214fbbad23a76586530dd2aeb49"),
    "expand --expr X(3) psi(-1/2)* + 2/3*psi(3/2) --unicode":
        (0, "31a05a928e2ed46aa5f3cc441f73d6c61b313f63167d4765c5b4884afc766225"),
}


@pytest.mark.parametrize("argv", list(_invocations()), ids=" ".join)
def test_report_digest(argv):
    assert _digest(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    for argv in _invocations():
        rc, digest = _digest(argv)
        key = " ".join(argv)
        print(f'    "{key}":\n        ({rc}, "{digest}"),')
