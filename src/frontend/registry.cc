#include "frontend/registry.hh"

#include "common/logging.hh"
#include "common/string_util.hh"
#include "conv/workloads.hh"
#include "frontend/cfg_parser.hh"

namespace mopt {

NetworkDef
resnet18Def()
{
    // Torch-style layer names; each basic-block stage halves the image
    // and doubles the channels, with a 1x1/2 downsample branch on the
    // first block of stages 2-4 (reading the *stage* input, which is
    // why branchConv exists).
    NetworkDef d("resnet18", 3, 224, 224);
    d.conv("conv1", 64, 7, 2);
    d.pool(3, 2); // maxpool 3x3/2: 112 -> 56
    for (int b = 0; b < 2; ++b)
        for (int c = 1; c <= 2; ++c)
            d.conv("layer1." + std::to_string(b) + ".conv" +
                       std::to_string(c),
                   64, 3);
    struct Stage
    {
        const char *name;
        std::int64_t ch;
    };
    for (const Stage &st : {Stage{"layer2", 128}, Stage{"layer3", 256},
                            Stage{"layer4", 512}}) {
        const std::string prefix(st.name);
        const NetworkDef::Cursor in = d.cursor(); // stage input
        d.conv(prefix + ".0.conv1", st.ch, 3, 2);
        d.conv(prefix + ".0.conv2", st.ch, 3);
        d.branchConv(prefix + ".0.downsample", st.ch, in.c, in.h, 1, 2);
        d.conv(prefix + ".1.conv1", st.ch, 3);
        d.conv(prefix + ".1.conv2", st.ch, 3);
    }
    return d;
}

NetworkDef
vgg16Def()
{
    // Configuration D: 2-2-3-3-3 convs per stage, 2x2/2 pooling
    // between stages.
    NetworkDef d("vgg16", 3, 224, 224);
    const struct
    {
        int stage;
        int convs;
        std::int64_t ch;
    } stages[] = {{1, 2, 64}, {2, 2, 128}, {3, 3, 256}, {4, 3, 512},
                  {5, 3, 512}};
    for (const auto &st : stages) {
        if (st.stage > 1)
            d.pool(2, 2);
        for (int c = 1; c <= st.convs; ++c)
            d.conv("conv" + std::to_string(st.stage) + "_" +
                       std::to_string(c),
                   st.ch, 3);
    }
    return d;
}

NetworkDef
yolov3Def()
{
    // Darknet-53 backbone: a 3x3/2 downsample into each stage, then
    // residual blocks of (1x1 squeeze, 3x3 expand). Residual adds do
    // not change shapes, so propagation is linear.
    NetworkDef d("yolov3", 3, 416, 416);
    d.conv("dark0.conv", 32, 3);
    const struct
    {
        int stage;
        int blocks;
        std::int64_t ch;
    } stages[] = {{1, 1, 64}, {2, 2, 128}, {3, 8, 256}, {4, 8, 512},
                  {5, 4, 1024}};
    for (const auto &st : stages) {
        const std::string prefix = "dark" + std::to_string(st.stage);
        d.conv(prefix + ".conv", st.ch, 3, 2);
        for (int b = 0; b < st.blocks; ++b) {
            const std::string block = prefix + "." + std::to_string(b);
            d.conv(block + ".conv1", st.ch / 2, 1);
            d.conv(block + ".conv2", st.ch, 3);
        }
    }
    return d;
}

std::vector<std::string>
registeredNetworkNames()
{
    return {"resnet18", "vgg16", "yolov3"};
}

NetworkDef
networkDefByName(const std::string &name)
{
    const std::string n = toLower(name);
    if (n == "resnet18" || n == "resnet-18")
        return resnet18Def();
    if (n == "vgg16" || n == "vgg-16")
        return vgg16Def();
    if (n == "yolov3" || n == "yolo-v3" || n == "darknet53")
        return yolov3Def();
    fatal("unknown network \"" + name + "\": valid names are " +
          join(registeredNetworkNames(), ", ") +
          "; a darknet .cfg path also works (e.g. --net model.cfg)");
}

bool
looksLikeCfgPath(const std::string &spec)
{
    if (spec.find('/') != std::string::npos)
        return true;
    return spec.size() > 4 && spec.substr(spec.size() - 4) == ".cfg";
}

NetworkDef
loadNetworkDef(const std::string &spec)
{
    if (looksLikeCfgPath(spec))
        return parseCfgFile(spec);
    return networkDefByName(spec);
}

} // namespace mopt
