"""The random stream of ``np.random.default_rng(seed)`` for the draws campaigns make, without ``numpy.random``.

A :class:`Stream` is numpy's default generator written out: ``SeedSequence(seed)`` seeds a PCG64 state
(XSL-RR 128/64, O'Neill 2014); ``random`` is the top 53 bits of an output times 2^-53; ``standard_normal``
is numpy's 256-step ziggurat (Marsaglia and Tsang 2000) with its tail and wedge tests; and
``integers(0, 2**62)`` is an output shifted right by 2, since Lemire's method never rejects on a range of
a power of two.  All three read one generator of PCG64 outputs, the one place the step is written.
Each call returns the bits and leaves the state that the same call of numpy's ``Generator`` does, so no
campaign imports ``numpy.random``, and no record depends on numpy keeping its ``Generator`` streams
stable (NEP 19 promises that only for bit generators).  Any other call is refused.  With numpy 2.4 on a
2-vCPU x86-64 VM, importing ``numpy.random`` costs 13 to 25 ms and about 6 MB of RSS, and a value here
0.5 to 0.7 us (numpy's: 4 ns in bulk, 0.7 us a call), so the stream is the cheaper below about 2 x 10^4
values per process; a benchmark campaign draws 69 to 2,600.
"""

from __future__ import annotations

import binascii
import math
from typing import Iterator

import numpy as np

__all__ = ["Stream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_MANTISSA = (1 << 52) - 1
_UNIT = 1.0 / 9007199254740992.0  # 2^-53: a uniform double is the top 53 bits of an output times this

# The ziggurat tables of numpy's standard normal: ki_double (uint64), then wi_double and fi_double
# (float64), 256 entries each, little-endian.  These are the bits of the local .rodata symbols of those
# names in the member src_distributions_distributions.c.o of numpy 2.4.6's numpy/random/lib/libnpyrandom.a
# (numpy/random/src/distributions/ziggurat_constants.h); they cannot be recomputed bit for bit.  From
# NumPy, Copyright (c) 2005-2017, NumPy Developers, under the BSD-3-Clause licence; numpy's ziggurat
# derives from Julia's (MIT licence).
_ZIGGURAT = binascii.a2b_base64(
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL/2HtNw8AXCVhlUZPDwCWoxvk"
    "pWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsHqZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8A"
    "xnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLp"
    "zMsPAMQ5+BJNzQ8AmeyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLoyKlu1w8A"
    "6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiBO90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w"
    "7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnhDwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8A"
    "KgDQmbfjDwB/rZ7pEOQPADR31EZn5A8AXAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5m"
    "vuYPAPL05VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBBx+gPAPZOfTj56A8A"
    "HZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLqDwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOF"
    "zOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8A"
    "FVqxUifsDwDTr50EQuwPAJbxKf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6TtDwC0anTIs+0PAFJmQd/C7Q8A"
    "Um6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginu"
    "R+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGXWAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A"
    "2iV+IJTuDwDqKahRmO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nuDwAQZClQ"
    "qe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8A"
    "epw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4AnlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCy"
    "MO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqiCe4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8A"
    "Nqg4HH/tDwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8AwTAStpjsDwB4qQ0K"
    "eewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKFyeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8A"
    "VyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/WxekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2"
    "BOgPAMAzgkir5w8ApWofdUznDwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIICLvj42g8Adbqy4YXZDwAEz0jv"
    "5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8A"
    "mEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oaDwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgv"
    "TQCcPHRydFovrJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb/43vOaQ8"
    "p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnue"
    "ZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8"
    "805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE"
    "5w2vPIj22FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyEfa+wPH/MS2Y9z7A8"
    "awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRy"
    "ZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM8"
    "1VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSFDsaBj7U8"
    "WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7Po"
    "Ab22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8"
    "595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMp"
    "OgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8"
    "W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5B"
    "tVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8"
    "q6I2vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV"
    "0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88"
    "aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj"
    "0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHMBJ28E8I87tNvekctwjwknKyk"
    "RUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8"
    "CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlT"
    "nxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8"
    "jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxb"
    "VLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO97D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/"
    "ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pI"
    "rZjoP6y8N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOeWMfmPyo7UV73luY/"
    "I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94Utxy"
    "IaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/"
    "7jvqVazh4j9KldcUqrriPxXNk47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL4D8qgovhMSngP8TKuIXcBuA/"
    "ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKh"
    "NjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gsHW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/"
    "gNikSlOF2j9NwCDqy0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv2D/ZDap/"
    "TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/"
    "RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6KcEFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8"
    "ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/"
    "6FRU7bJ90T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/NTK4jBCIzz/SmOls"
    "/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1PfcZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/"
    "OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT"
    "+KHHP6a1epx8Ssc/FkeWfmDzxj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2MtqOVAY8E/uW6iHcsSwT+6CVI9"
    "s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZhtdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/"
    "M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQuT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oG"
    "mwy1PxMiG0DhfLQ/hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVubCssJq8/"
    "gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz6dumP9St8jyy2qU/XScRDl3bpD/L7pjO"
    "8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoSnj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/"
    "E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFD"
    "n19lPw/3ubYFplQ/"
)
_KI, _WI, _FI = (np.frombuffer(_ZIGGURAT, t, 256, 2048 * k).tolist() for k, t in enumerate(("<u8", "<f8", "<f8")))
_R, _INV_R = 3.6541528853610087963519472518, 0.27366123732975827203338247596  # the ziggurat's tail start, 1/r


def _seed_words(seed: int) -> list[int]:
    """The 8 uint32 words ``SeedSequence(seed).generate_state(4, np.uint64)`` makes, before pairing."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43B0D7E5  # hashmix: value ^ h, h *= MULT_A, value * h, value ^ value >> 16

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, mult = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        out.append(value ^ value >> 16)
    return out


def _pcg64(state: int, inc: int) -> Iterator[int]:
    """PCG64's outputs after ``state``: each advances the 128-bit LCG, then permutes the new state by XSL-RR."""
    while True:
        state = (state * _MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> rot | x << 64 - rot) & _M64


def _ziggurat(outputs: Iterator[int], uniforms: Iterator[float]) -> Iterator[float]:
    """numpy's standard normals from ``outputs``, one try per output; a try outside the ziggurat's
    rectangles is settled by the tail or the wedge test, which draw ``uniforms`` (from the same outputs)."""
    for r in outputs:
        idx, rabs = r & 0xFF, r >> 9 & _MANTISSA
        v = -(rabs * _WI[idx]) if r & 0x100 else rabs * _WI[idx]
        if rabs < _KI[idx]:  # 99.3% of tries
            yield v
        elif idx == 0:
            while True:  # 1 - U, not U, so log never sees 0
                xx, yy = -_INV_R * math.log1p(-next(uniforms)), -math.log1p(-next(uniforms))
                if yy + yy > xx * xx:
                    yield -(_R + xx) if rabs >> 8 & 1 else _R + xx
                    break
        elif (_FI[idx - 1] - _FI[idx]) * next(uniforms) + _FI[idx] < math.exp(-0.5 * v * v):
            yield v


def _fill(values: Iterator[float], size):
    """The next value of ``values`` for a ``size`` of None, else a float64 array of shape ``size`` filled
    in C order.  numpy refuses a bad size, or one too large for memory, before anything is drawn."""
    if size is None:
        return next(values)
    out = np.empty(size)
    fill = memoryview(out.reshape(-1))
    for k in range(len(fill)):
        fill[k] = next(values)
    return out


class Stream:
    """``np.random.default_rng(seed)`` for ``random(size)``, ``standard_normal(size)`` and
    ``integers(0, 2**62)``, for a non-negative int ``seed``.  ``size`` is None (one Python float) or an
    array shape (a float64 array of that shape, filled in C order).  Every draw reads one generator of
    PCG64 outputs, so a copy of a stream shares its state."""

    __slots__ = ("_outputs", "_uniforms", "_normals")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        state, seq = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2], w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        inc = (seq << 1 | 1) & _M128
        self._outputs = _pcg64(inc + state, inc)
        next(self._outputs)  # numpy's seeding ends with this step, whose output is not drawn
        self._uniforms = ((x >> 11) * _UNIT for x in self._outputs)
        self._normals = _ziggurat(self._outputs, self._uniforms)

    def random(self, size=None):
        return _fill(self._uniforms, size)

    def standard_normal(self, size=None):
        return _fill(self._normals, size)

    def integers(self, low: int, high: int) -> int:
        if (low, high) != (0, 2**62):
            raise ValueError(f"Stream draws integers in [0, 2**62) only, not [{low}, {high})")
        return next(self._outputs) >> 2
