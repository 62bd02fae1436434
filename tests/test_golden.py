"""Golden output: the sha256 of stdout, stderr and exit code of fixed commands.

Each key is a command line run in-process through `cli.main`; `a | b` feeds
the stdout of `a` to `b` as stdin, and the hash covers every stage.  A
refactor that should change no output must leave every hash as it is; a
failure names the command whose output moved.  Argparse errors are left
out, since their wording differs across Python versions.

To re-pin after an intended output change, print `_digest(command)` for
each key.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from entinv.cli import main
from entinv.suites import suite_local_invariance

LOCAL_INVARIANCE = "suite_local_invariance(draws=2, d_max=2).to_dict()"


def _run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _digest(command: str) -> str:
    h = hashlib.sha256()
    if command == LOCAL_INVARIANCE:
        report = suite_local_invariance(draws=2, d_max=2)
        h.update(json.dumps(report.to_dict()).encode())
        return h.hexdigest()
    stdin = ""
    for stage in command.split(" | "):
        code, stdin, err = _run(stage.split(), stdin)
        h.update(json.dumps([code, stdin, err]).encode())
    return h.hexdigest()


GOLDEN = {
    "table --family 22d --d 2":
        "4ef09f2894e4d74c8eec4dce16c5740a0682c6e42aa6a004a603df9b1d1b5dcc",
    "table --family 22d --d 2 --format json":
        "dbb6693bc77b629eea6856e49f36c9e0f9811074e0f3e0812495fbca46a9bcbf",
    "table --family 22d --d 3":
        "9698f15d03b2f569df2678697ba0a96f2fb89a24a530d47f8a8e67a7d764aab7",
    "table --family 22d --d 3 --format json":
        "9c93a9d4199aeee745e647e60058c53ae9485258fab0bf3b377db271b9d8a291",
    "table --family 22d --d 4":
        "8bf098913c15cd6bec55cc402c6e11c0bdff178bd4e16f1e164c9a8883d25286",
    "table --family 22d --d 4 --format json":
        "52bcdedfa314238636f8ccdb309ba65604651a9a6a4ea2721106036a204ef8e0",
    "table --family 22d --d 5":
        "5c63886fbfdbf66e3892acc7b6226667af3859c181595acbb1e80e544f9f4762",
    "table --family 22d --d 5 --format json":
        "ad1aaf93bff1cc0029e68f446c4808cbc094d5c4e87059d576a2eb07d0be1d49",
    "table --family 22d --d 6":
        "6d9c2f7cbb352d2bd154226eff2dffb620bdcf09316f074ed61f2eb868c7ad2e",
    "table --family 22d --d 6 --format json":
        "08e0ea80ebe9070ceafc24caf1b5c56efc59bbceb7bdf5cb6976ef8ae9a0c529",
    "table --family 23d --d 2":
        "058e3beb6141ac31f51aa42165691b993f44451f2a535b87518ffdb4c5629edd",
    "table --family 23d --d 2 --format json":
        "1e3e4b58e9f9b2cc30bffea7642e0f76e7b94acce83b97acf29994f52cbd63c2",
    "table --family 23d --d 3":
        "64a16542ff45f8ab792b73612826dcfd1ac0025beb692607911bb1a9badfa025",
    "table --family 23d --d 3 --format json":
        "79f82685ce2d830e4c252415e453a3d613bf08522f32b13b57e39251279a7646",
    "table --family 23d --d 4":
        "d30c629ecfcc45accf0601f1ed64caf2446f72038e9fb46392ddebfe7299131e",
    "table --family 23d --d 4 --format json":
        "5b72eb78e330fc776583c9291e93c65b3961bb2839e23a0cba41b115ab364d11",
    "table --family 23d --d 5":
        "42a611b882f12b8b4cb9a8d734e3dcaa8bba2225fe5ecb0460045618d8421d1d",
    "table --family 23d --d 5 --format json":
        "a02efbce1c4f163bf80cfefd76de4a3e9446faa0baba8de73de2ceb842a07121",
    "table --family 23d --d 6":
        "f6ac6c6bed544f947fa47f8cc2c7b0cdb11670d547622b0fd6ebac0dfb258c42",
    "table --family 23d --d 6 --format json":
        "d5ffab65a6b7d325a3f3f1bef701c8d4150d3d6fa42705ed25a045ae3bb464ad",
    "table --family bipartite --d1 1 --d2 1":
        "9f28c5ce4338e51713475e6fc11ff02873ff4e85e1c0f87bd03b3a4a430d7f0f",
    "table --family bipartite --d1 1 --d2 1 --format json":
        "f43d68fda176fe2f3ad29e49a8a1b6fa4b085b85746366ec8e692f32e32e4fd6",
    "table --family bipartite --d1 2 --d2 3":
        "7a25d94e2d0fd0bc5e181b99f3a7fb8a9e75937b551e86513f87801b80ee22ce",
    "table --family bipartite --d1 2 --d2 3 --format json":
        "6c0db9dbc870767fc3b70ac47c7620781b84eb4bfbd1e65cf41c567936455d4b",
    "table --family bipartite --d1 4 --d2 2":
        "cdf3ed54428b9022e796dd22b8f71580e3b49e9ebfd760e4021641e46ba24de5",
    "table --family bipartite --d1 4 --d2 2 --format json":
        "e739eafd02134c9f403a345c616a814f05088597058d0a2c9aca0348dc257b1f",
    "table --family bipartite --d1 5 --d2 5":
        "ec4f15a71357d9e11f12035a93b4f7694543e02a5ae5be0663f4faac2f3f7617",
    "table --family bipartite --d1 5 --d2 5 --format json":
        "c26e26046ed0703c27900861058b8439b855dcca8e909f4d4f597120179188cb",
    "representative --family 23d --d 4 --label C0 --generic-seed 3 | classify --format json -":
        "3178834c62e0d7d0a46a1be3b2965a1119677d52b17474307b476e8b9ac4ad4e",
    "representative --family 23d --d 4 --label C1 --generic-seed 3 | classify --format json -":
        "6bbe2fb7505b8c3986a0007eaee2441b5d4e90b15157c787b6414bdf7b65bcf4",
    "representative --family 23d --d 4 --label C2 --generic-seed 3 | classify --format json -":
        "632dcd2ab0908003162b6374ce14ee84ad9b2bea2c9934e986bf6165a79f1de8",
    "representative --family 23d --d 4 --label C3 --generic-seed 3 | classify --format json -":
        "1ffd116e1f9614a811af634cfc779eb64582353eeac550b0008934a61d28a3b8",
    "representative --family 23d --d 4 --label C4 --generic-seed 3 | classify --format json -":
        "bc3f42bbb710ae86953cff25923aff3b54dce2d9449c92f710a7c63ce84af6a5",
    "representative --family 23d --d 4 --label C5 --generic-seed 3 | classify --format json -":
        "057d18ec995aa48cc2b9383ce998eadfbb3d831e1495b0c202381e36d1a64e2c",
    "representative --family 23d --d 4 --label C6 --generic-seed 3 | classify --format json -":
        "b7d49662562c9b88952ac2a31b5f923d5cc716a7e032212f4c68447f86ed901b",
    "representative --family 23d --d 4 --label C7 --generic-seed 3 | classify --format json -":
        "e81dd827c90e03933bac887d52648df281008ffc488be97defa2e722aa379c94",
    "representative --family 23d --d 4 --label C8 --generic-seed 3 | classify --format json -":
        "88fe8c9a60857f637174ccef0c7f4e2b265fd816a9df8e91b4a0330a504e22fa",
    "representative --family 23d --d 4 --label C9 --generic-seed 3 | classify --format json -":
        "19b9545e46b321cb4c4f557bb46635af17105dbacf2b8221cc6da1b7e707f049",
    "representative --family 23d --d 4 --label C10 --generic-seed 3 | classify --format json -":
        "56ebf145c4aec86c76ed3d2c47297154558f1252ed4167c4f6cbe3408d4f357f",
    "representative --family 23d --d 4 --label C11 --generic-seed 3 | classify --format json -":
        "459612614262fbe20f72deeb95e3012beae4f4f7dce87edf2a8e7f661a1076c8",
    "representative --family 23d --d 4 --label C12 --generic-seed 3 | classify --format json -":
        "b7c7e75223e8d41376c4ce2027c4827ab04e2eac660f02f76df2652be9084267",
    "representative --family 23d --d 4 --label C13 --generic-seed 3 | classify --format json -":
        "ae608845893cd34ff9f9808e3e30605b89642af7226be2bf6b144f523e4e873d",
    "representative --family 23d --d 4 --label C14 --generic-seed 3 | classify --format json -":
        "4b0acd3a5f08f8c7256b6272a25ccf46f5fccbce6d9a8024938e295c78281e1b",
    "representative --family 23d --d 4 --label C15 --generic-seed 3 | classify --format json -":
        "47e293472750783883a20f46ff105973ae104912fea7ef5c7d7c4a79f020b25b",
    "representative --family 23d --d 4 --label C16 --generic-seed 3 | classify --format json -":
        "83e26c6d1e34b28e1609214500b06764180995e0f33fd256d4af2f7d7dbc4232",
    "representative --family 23d --d 4 --label C17 --generic-seed 3 | classify --format json -":
        "d09adc5422b158d43e248ed8c1d60b3a1f7cb64c2961e390851dae2872c21eb2",
    "representative --family 23d --d 4 --label C18 --generic-seed 3 | classify --format json -":
        "c3a6c1fac0aa3c3e3d574dbec151057a2bfadb2b72062c7d0954c3cd20b79e2d",
    "representative --family 23d --d 4 --label C19 --generic-seed 3 | classify --format json -":
        "25524ec548e5b9bfbd1f45f05473ee5fcabd5b1b3da796362961851170d80bb4",
    "representative --family 23d --d 4 --label C20 --generic-seed 3 | classify --format json -":
        "cce69087d54f7c5e3ae1f4a5dd8f6396b3e14e4497814aaef8e272511c872a27",
    "representative --family 23d --d 4 --label C21 --generic-seed 3 | classify --format json -":
        "a1521d5e7d69bf583418979ed3a8182154efaaa6a8610e9a3769b71fd0368292",
    "representative --family 23d --d 4 --label C22 --generic-seed 3 | classify --format json -":
        "ad3fe8c8e7a0b7735a74a5278e1c3cc3b4478b52c375fc8a0d501f2c7156a641",
    "representative --family 23d --d 4 --label C23 --generic-seed 3":
        "7ee88f26fd3d1f31418e896ca133d12b04a731fc03d06e81f71a16bb1c08595a",
    "representative --family 23d --d 4 --label C24 --generic-seed 3":
        "bf48eda430f296e791ec0a66667baad0b5e2be4abc609e90cb676d388a2e376d",
    "representative --family 23d --d 4 --label C25 --generic-seed 3":
        "2fab96f8d7c75caecd3260daf26ff0997a30787761c25eb32c352bd1443d5b59",
    "representative --family 22d --d 2 --label C1 | explain3 -":
        "f2918e6c7b98daa01a351474136518d1f85781c3783c27ffd05353aaae9fa325",
    "representative --family 22d --d 2 --label C1 | explain3 - --format json":
        "30f9958c1bc0fec9c82fd0af1c670c2c6555e1bbf1674433c3ef51c8c6e24cdf",
    "representative --family 22d --d 2 --label C3 | explain3 -":
        "7f9cbd66b487ffd3435fac944cb29be6cc5d4de4b6dd773e3131b7ecd0c84339",
    "representative --family 22d --d 2 --label C3 | explain3 - --format json":
        "acf0e48660842f0a5a1ef7a7d1afb72b2663e5fe0afb14b10c2bb54090b86f92",
    "representative --family 22d --d 2 --label C5 | explain3 -":
        "d9fa2ced4e3b502a4b1194573062f3257ea36ba343e5767b9838f1b354189959",
    "representative --family 22d --d 2 --label C5 | explain3 - --format json":
        "7e5868910ca40c5c50d76d81b5081fd949b7cf66c175722e83a474f62ebca664",
    "representative --family 22d --d 2 --label C6 | explain3 -":
        "b23e11d82ec833650bab0913f9d9ac4bd5794e628082af25bbc3f3e657689912",
    "representative --family 22d --d 2 --label C6 | explain3 - --format json":
        "f1c7d6db33e0f2e457ff1aecf664e12911387d75dbed310991e1cd1e61402c2e",
    "verify --suite tables --d-max 3":
        "51e158896394bbed8abbf6da9b7bb1cd9184b270c26a8c8abbab92e81416be25",
    "verify --suite tables --d-max 3 --format json":
        "2953aa58d60d8762338f40eea4bba6950d36ebcd881523f6d3a47b3379fcda98",
    "verify --suite duality --samples 10":
        "8f980d5e6b1876d0bf0cec1776c4538fd00ad4b5746b01be4c4993da7723050b",
    "verify --suite duality --samples 10 --format json":
        "23d65580543556e770b064215a160867c5ce105b92ba41e813f162af15c67a15",
    "verify --suite exhaustive-222":
        "2e34c4bce503b6359e2609de99f76ffedf619a36e95dce0f7945a7cf6752b228",
    "verify --suite exhaustive-222 --format json":
        "b9670f84da10afdfc8ee8aa55b8a526ff3be8bcd99edae74d1e4ae52f4fc35e0",
    "verify --suite survey --samples 20":
        "85cd3dca64fe2500fd921689f7374e45ee634cd35a0eac5ae8fbcdcea398815f",
    "verify --suite survey --samples 20 --format json":
        "90bf499164085dae8ecef1169db369ebd31b7ca1cce5ba9c3a1bc36bcd690a81",
    "representative --family 23d --d 4 --label C0 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "51c8ca379e124389cf0de68b26152da7f44a73bb367e815ac7cf9eafbb24f2a2",
    "representative --family 23d --d 4 --label C1 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "5f3e9921ea106c26dc6637111cca240680cf95b12c9a4237d4ebae686c7c276e",
    "representative --family 23d --d 4 --label C2 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "a058fb3841b5c1c3eb46a3da7b7353924751a33001859d16b24a5e0955aff86e",
    "representative --family 23d --d 4 --label C3 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "03c8280b9b4ae838d72ec252c4d1d7178952a5d36811deb2aa4169093f8289e4",
    "representative --family 23d --d 4 --label C4 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "18fa8d898f074a881944a615cabe8bef7f4770428a0e9e51b3386319ad1ee6e1",
    "representative --family 23d --d 4 --label C5 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "e5dc70eaf8da7a42ca1241212351c6dc21bb9bdb24e866b92c9d7d644754b12a",
    "representative --family 23d --d 4 --label C6 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "20001b777d9195977f05541e9230e4548dea3cee241c6a736d0a8e4317f72c31",
    "representative --family 23d --d 4 --label C7 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "b58592f6797f6561a2bdedea5c70f3222cba0ff713bf20b9e1469d7fd2b01f25",
    "representative --family 23d --d 4 --label C8 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "6fa3083cc89d384490311da64e0d0d119b494080c94d822265e1c9311c9de23c",
    "representative --family 23d --d 4 --label C9 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "f70dde18127e9bfd7e8d09da8ddfe868eff70bc617897dfd95750ba70e1835cd",
    "representative --family 23d --d 4 --label C10 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "7757310133e59d2b3bd3f1560716a34fd715fb6dbb36100c484ab7846577b340",
    "representative --family 23d --d 4 --label C11 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "0c512b188008df40336ad49677250e1ac187f09d411b549b0dd5ca4f6018c47e",
    "representative --family 23d --d 4 --label C12 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "7c8146b8747fa711a220592ec33717bf4fa6f5fc40f013b32fa7c038396677bc",
    "representative --family 23d --d 4 --label C13 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "7aa12836eb3ff38442ce1511d9d9f3cdcd86b2e3fed8f7f2ef1c8461d20a2fa3",
    "representative --family 23d --d 4 --label C14 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "d7ea25a70596cee6a05f5e6dd9348d4fd6b5bdb9f3a650eb3c226b1ae94e8c39",
    "representative --family 23d --d 4 --label C15 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "ca5eecae5e8b73ae4c13572ccef19e252807b9486b38e6e359183baf862f0f12",
    "representative --family 23d --d 4 --label C16 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "58fe2f5435a30ed9628bc7b2c57b8b6df50636810c4c18d830b5d9568734bf4c",
    "representative --family 23d --d 4 --label C17 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "f2c159e4829359155c27f196f32636b73e10cd82a8e1799eeccc81245cb985b7",
    "representative --family 23d --d 4 --label C18 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "754757d71d473417d6492dc445ad9cedd463607449b08de833009ed9a93c0098",
    "representative --family 23d --d 4 --label C19 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "097150d28f12931d68982eafe25af4f4b1fa00769ae20e8af0d36d104e9b3a80",
    "representative --family 23d --d 4 --label C20 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "6b0af3542d1d69428acc8fdb2c4c670aec4c5bc1e6fef3649a76dbda832a140b",
    "representative --family 23d --d 4 --label C21 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "908d330cd16368258cf04180aa3ba6ebb9291487523ec5d3c3c13772c0d10a8a",
    "representative --family 23d --d 4 --label C22 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "84f91d14371407cefff6de8fb11acc956d85ff1c95298ff505c3b2ce17ec1fcf",
    "representative --family 23d --d 4 --label C23 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "524ceff5a38c81d6895e776154521b2ea91522f39e5cff50d123f602c5ff332d",
    "representative --family 23d --d 4 --label C24 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "76d14acf89b7c7bd95f4305b3685932a38e07297cbb967f577de7adf2a5862a2",
    "representative --family 23d --d 4 --label C25 --field gaussian-rational --generic-seed 3"
    " | classify --format json -":
        "fcea9904a78fab98dd1e6177dfd2cd7a63fe10ec5bce75b0a334ce23516c43c9",
    "representative --family 22d --d 2 --label C5 --field gaussian-rational --generic-seed 3"
    " | explain3 - --format json":
        "7306d4db0c304ba281d90597ecabb7e1ad7e24f8d98957e6231d9ada3075299f",
    # the local action over GF(p), in generic bases: each state is its own label
    "representative --family 23d --d 4 --label C12 --field gf(101) --generic-seed 3"
    " | classify --format json -":
        "86cc2369af126e03f258faf8417215178bf9086a4dbbc0d31e06bec4b78f15ff",
    "representative --family 22d --d 3 --label C7 --field gf(7) --generic-seed 3"
    " | classify --format json -":
        "425b54315b6f442d2d8945c6bc72a9581cbf11fe18904e61ce50c1e8baa5a409",
    "representative --family bipartite --d1 3 --d2 4 --label C2 --field gf(5) --generic-seed 3"
    " | classify --format json -":
        "fc7c2aa31041aa6100ce52534599cf89171dcf580d5b843a426bcb07ba1abb05",
    "representative --family 22d --d 2 --label C5 --field gf(101) --generic-seed 3 | explain3 -":
        "881350e34962d4d7c31efcbfc6a6f072b69f14e6b71767e0782b22ef2006b134",
    "representative --family 23d --d 3 --label C9 --field gf(7) --generic-seed 3 --sparse"
    " | classify -":
        "114b5d6b8d1882ee35bd06b0658bbf25e39bc391a20ecaccbaa3499c2704c79b",
    "verify --suite duality --samples 10 --field gaussian-rational":
        "8e76aa3fd5ecbc491f2b07ae51d67c796bb337719dc0aaee127b7d253cb448fd",
    "verify --suite survey --samples 20 --field gaussian-rational --format json":
        "b797fa60f31f4c16cbd032b7d2451523fd03f9078ec3346d5ef24ee9937c60e7",
    # one binary state at (2, 2, 2) has no class over gf(2): exit 2 with the gap's detail
    "verify --suite survey --samples 5 --field gf(2)":
        "45e6aef2a899146668149b2a6e1017e7d9814ac42e0926c78402d44b4e0a9dd0",
    "verify --suite exhaustive-222 --field gaussian-rational":
        "5a6aad93fa590bb8097566ba2605db6a89fdfd30e62591669058599303d19926",
    # 54 of the 256 binary states have no class over gf(2): the count and the first gap
    "verify --suite exhaustive-222 --field gf(2)":
        "5d4d51fd1f52696899cdc6a7041b12ab123e1763c26d92f33dc118749c5d802b",
    "verify --suite exhaustive-222 --field gf(2) --format json":
        "be2ebeb9aa3fb7f7382be089b0fc985e32d239bae2350d05cb5c0f026b570dbb",
    "suite_local_invariance(draws=2, d_max=2).to_dict()":
        "21f069a1f77d6ae469fa96eae29cee2198ee48d4f37faef0d741df6bb7a4e4a1",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_is_pinned(command):
    assert _digest(command) == GOLDEN[command]
